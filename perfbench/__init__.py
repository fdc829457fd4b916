"""End-to-end benchmark of the biosensor system (see NOTES.md)."""
