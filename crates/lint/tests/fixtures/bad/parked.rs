//! Linter fixture: a sleep spelled as a park is still TL005.
//! lint_self.rs asserts the exact (rule, line) pairs reported here.

fn parked() {
    std::thread::park();
}

fn parked_with_deadline() {
    std::thread::park_timeout(std::time::Duration::from_millis(1));
}
