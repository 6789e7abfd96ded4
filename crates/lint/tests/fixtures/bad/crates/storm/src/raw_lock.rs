//! Hot-crate fixture: raw locks where typhoon-diag wrappers are required.

use std::sync::Mutex;

static SLOTS: std::sync::RwLock<u32> = std::sync::RwLock::new(0);
