"""Tag paths with C/S direction nodes, compatibility and Formula-1 distance."""
