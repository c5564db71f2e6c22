//! Seeded violation: secret material written in place into an open
//! frame file, as the flight recorder writes its slots.

fn record(file: &File, path: &Path, keys: &KeySet) -> Result<(), PersistError> {
    slicer_persist::write_frames_at(file, path, 0, keys)
}
