//! Linter fixture: the one legitimate park (a doorbell's wait) carries a
//! waiver; waking a thread needs none.

fn wait(deadline: std::time::Duration) {
    // LINT: allow-sleep(the doorbell's park, ended by a ring or the caller's deadline)
    std::thread::park_timeout(deadline);
}

fn ring(waiter: &std::thread::Thread) {
    waiter.unpark();
}
