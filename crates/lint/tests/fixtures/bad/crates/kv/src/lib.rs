//! Fixture: names one of the four crates its manifest lists. A local
//! called `rand` and a path through `operand::` are not uses of `rand`.

pub type Lock = typhoon_diag::DiagMutex<u32>;

mod operand {
    pub fn four() -> u32 {
        4
    }
}

pub fn four() -> u32 {
    let rand = operand::four();
    rand
}
