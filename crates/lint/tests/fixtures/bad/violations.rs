//! Linter fixture: known violations with stable line numbers.
//! lint_self.rs asserts the exact (rule, line) pairs reported here.

fn lock_unwrap(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}

fn sleepy() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

fn chan() {
    let (_tx, _rx) = std::sync::mpsc::channel::<u8>();
}

unsafe fn danger() {}

fn blocky() {
    let p: *const u8 = std::ptr::null();
    unsafe {
        let _ = *p;
    }
}

fn imported_chan() {
    use std::sync::mpsc::channel;
    let (_tx, _rx) = channel::<u8>();
}
