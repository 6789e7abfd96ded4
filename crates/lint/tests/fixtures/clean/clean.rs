//! Linter fixture: every would-be violation is properly waived or
//! documented; the linter must report nothing for this tree.

fn lock_unwrap(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap() // LINT: allow-lock-unwrap(single-threaded setup code)
}

fn sleepy() {
    // LINT: allow-sleep(fixture pacing loop)
    std::thread::sleep(std::time::Duration::from_millis(1));
}

fn chan() {
    let (_tx, _rx) = std::sync::mpsc::channel::<u8>(); // LINT: allow-unbounded(fixture control channel)
    let (_tx, _rx) = std::sync::mpsc::sync_channel::<u8>(8);
}

fn blocky() {
    let p: *const u8 = std::ptr::null();
    // SAFETY: p is only compared, never dereferenced for real.
    unsafe {
        let _ = *p;
    }
}

fn mentions_only() {
    let _doc = "an unbounded( call inside a string is not a violation";
    // thread::sleep in a comment is not a violation either
}
