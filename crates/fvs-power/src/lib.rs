//! Power, voltage and energy models for frequency/voltage scheduling.
//!
//! Implements the power side of Kotla et al. (2005):
//!
//! - the **frequency→power table** the scheduler consults (paper Table 1,
//!   generated on the original system by the Lava circuit-level estimator
//!   — reproduced here verbatim as [`FreqPowerTable::p630_table1`]),
//! - the **minimum-voltage table** (`MinVoltage(f)` of Figure 3 step 3),
//!   one nominal table for every processor,
//! - the **analytic model** `P = C·V²·f + B·V²` of section 4.4, with a
//!   least-squares calibration against any (f, V, P) table,
//! - **energy accounting** (the paper's Table 3 reports normalised
//!   energy), and
//! - the **power-supply failure scenario** of section 2: supplies with
//!   finite capacity and a failure at `T0`, which the bank scripts as a
//!   budget drop, and the cascade deadline `ΔT` it names; the simulation
//!   that runs under the budget times the overload against `ΔT`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod energy;
pub mod index;
pub mod model;
pub mod supply;
pub mod table;
pub mod voltage;

pub use budget::{replaced_budget, BudgetEvent, BudgetSchedule};
pub use energy::EnergyMeter;
pub use index::PowerVoltageIndex;
pub use model::{AnalyticPowerModel, CalibrationReport};
pub use supply::{PowerSupply, SupplyBank, SupplyEvent};
pub use table::FreqPowerTable;
pub use voltage::VoltageTable;
