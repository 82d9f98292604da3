//! The tape-instrumentation switches, sharing the workspace's `PACE_*`
//! env-flag grammar.
//!
//! The parsing machinery ([`EnvFlag`], [`EnvSpec`], [`FlagMode`]) lives in
//! [`pace_runtime::flags`] — the bottom of the crate stack — and is
//! re-exported here unchanged. The grammar, shared by every switch:
//!
//! * `0` (or unset, or anything unrecognized) — off;
//! * `1` / `true` / `on` — enabled: findings are *reported* (a dirty audit
//!   prints to stderr, execution continues);
//! * `strict` — enabled, and findings are *fatal*: a dirty audit panics at
//!   the choke point, so CI and experiment runs cannot silently proceed on
//!   a corrupted tape.
//!
//! Each env variable is read once, on first query; tests and embedders can
//! override at any time with [`EnvFlag::set`] / [`EnvSpec::set`].

pub use pace_runtime::flags::{EnvFlag, EnvSpec, FlagMode};

/// The tape-auditor switch (`PACE_AUDIT`); see [`crate::analysis`].
pub static AUDIT: EnvFlag = EnvFlag::new("PACE_AUDIT");

/// The snapshot finiteness gate (`PACE_FINITE`); when enabled,
/// [`crate::serialize`] readers reject payloads containing NaN/Inf values
/// instead of loading them into a model.
pub static FINITE: EnvFlag = EnvFlag::new("PACE_FINITE");

/// The fault-injection spec (`PACE_FAULTS`); see [`crate::fault`].
pub static FAULTS: EnvSpec = EnvSpec::new("PACE_FAULTS");
