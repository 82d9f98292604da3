//! The bit-exact campaign fingerprint shared by the `chaos_campaign` binary
//! and `xtask determinism`: FNV-1a over the q-error summaries, the
//! divergence, the poison batch's predicates, and the poisoned model's
//! parameter image. Two runs that print the same fingerprint reached the
//! same final state.

use pace_ce::CeModel;
use pace_core::AttackOutcome;

/// FNV-1a over `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprints a finished campaign and the model it poisoned.
///
/// # Errors
/// Fails when the model's parameters cannot be serialized.
pub fn campaign_fingerprint(outcome: &AttackOutcome, model: &CeModel) -> Result<u64, String> {
    let mut h = Fnv::new();
    for s in [&outcome.clean, &outcome.poisoned] {
        for v in [s.mean, s.median, s.p90, s.p95, s.p99, s.max] {
            h.write_u64(v.to_bits());
        }
    }
    h.write_u64(outcome.divergence.to_bits());
    for q in &outcome.poison {
        for &t in &q.tables {
            h.write_u64(t as u64);
        }
        for p in &q.predicates {
            h.write_u64(p.table as u64);
            h.write_u64(p.col as u64);
            h.write_u64(p.lo as u64);
            h.write_u64(p.hi as u64);
        }
    }
    let mut params = Vec::new();
    pace_tensor::serialize::write_params(model.params(), &mut params)
        .map_err(|e| format!("cannot serialize the poisoned model: {e}"))?;
    for b in params {
        h.write_u64(u64::from(b));
    }
    Ok(h.0)
}
