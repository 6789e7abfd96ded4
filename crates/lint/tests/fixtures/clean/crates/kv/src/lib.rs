//! Fixture: a dependency used as a path, one re-exported by a bare `use`,
//! and a dev-dependency used as a macro.

pub use typhoon_metrics as metrics;

pub type Lock = typhoon_diag::DiagMutex<u32>;

#[cfg(test)]
mod tests {
    proptest::proptest! {
        fn holds(_x in 0u32..4) {}
    }
}
