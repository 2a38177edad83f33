//! Execute machines (Condor worker ads and slots).

use std::borrow::Borrow;
use std::fmt;
use std::num::NonZeroU32;

use crate::classad::{ClassAd, Value};

/// A machine's name in the pool (its hostname).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineName(pub String);

/// Lets name-keyed maps be probed with a `&str`, no `MachineName` built.
/// The derived `Eq`/`Ord`/`Hash` are the inner `String`'s, so they agree
/// with `str`'s as `Borrow` requires.
impl Borrow<str> for MachineName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MachineName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A machine name's index in its pool's name table, fixed the first time
/// the name joins the pool and kept for the pool's whole life. Non-zero,
/// so an `Option<MachineId>` is four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MachineId(NonZeroU32);

impl MachineId {
    /// The id of table entry `index`.
    pub(crate) fn from_index(index: usize) -> MachineId {
        let id = u32::try_from(index + 1).expect("fewer than 2^32 machine names");
        MachineId(NonZeroU32::new(id).expect("index + 1 is non-zero"))
    }

    /// The table entry this id indexes.
    pub(crate) fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// A worker machine in the pool.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Its name.
    pub name: MachineName,
    /// The machine ad (Memory, Cpus, ComputeUnits, Arch, OpSys, …).
    pub ad: ClassAd,
    /// Total execute slots (one per vCPU).
    pub slots_total: u32,
    /// Currently free slots.
    pub slots_free: u32,
    /// When draining, no new jobs match; the machine leaves the pool once
    /// its running jobs finish.
    pub draining: bool,
}

impl Machine {
    /// Build a machine with the standard attribute set.
    pub fn new(name: &str, compute_units: f64, memory_mb: i64, slots: u32) -> Self {
        assert!(slots >= 1, "a machine needs at least one slot");
        assert!(compute_units > 0.0);
        let ad = ClassAd::new()
            .with("Machine", Value::Str(name.to_string()))
            .with("ComputeUnits", Value::Float(compute_units))
            .with("Memory", Value::Int(memory_mb))
            .with("Cpus", Value::Int(slots as i64))
            .with("Arch", Value::Str("X86_64".to_string()))
            .with("OpSys", Value::Str("LINUX".to_string()));
        Machine {
            name: MachineName(name.to_string()),
            ad,
            slots_total: slots,
            slots_free: slots,
            draining: false,
        }
    }

    /// The machine's compute capacity **per slot**. A multi-slot machine
    /// divides its capacity among concurrently running jobs.
    pub fn compute_units_per_slot(&self) -> f64 {
        match self.ad.get("ComputeUnits") {
            Value::Float(f) => f / self.slots_total as f64,
            Value::Int(i) => i as f64 / self.slots_total as f64,
            _ => 1.0 / self.slots_total as f64,
        }
    }

    /// Can this machine accept a new job right now?
    pub fn accepting(&self) -> bool {
        !self.draining && self.slots_free > 0
    }

    /// Jobs currently running here.
    pub fn busy_slots(&self) -> u32 {
        self.slots_total - self.slots_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_ad_fields() {
        let m = Machine::new("worker-1", 2.2, 1700, 2);
        assert_eq!(m.ad.get("Memory"), Value::Int(1700));
        assert_eq!(m.ad.get("ComputeUnits"), Value::Float(2.2));
        assert_eq!(m.ad.get("opsys"), Value::Str("LINUX".to_string()));
        assert!(m.accepting());
    }

    #[test]
    fn per_slot_capacity_divides() {
        let m = Machine::new("w", 8.0, 15000, 4);
        assert_eq!(m.compute_units_per_slot(), 2.0);
        let single = Machine::new("s", 1.0, 1700, 1);
        assert_eq!(single.compute_units_per_slot(), 1.0);
    }

    #[test]
    fn draining_stops_acceptance() {
        let mut m = Machine::new("w", 1.0, 1700, 1);
        m.draining = true;
        assert!(!m.accepting());
    }

    #[test]
    fn busy_slot_accounting() {
        let mut m = Machine::new("w", 2.0, 1700, 2);
        assert_eq!(m.busy_slots(), 0);
        m.slots_free = 1;
        assert_eq!(m.busy_slots(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        Machine::new("w", 1.0, 1700, 0);
    }
}
