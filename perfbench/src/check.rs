//! Output checks. Every reference is computed apart from the timed path,
//! from the same inputs; nothing is compared against stored output.

/// Relative tolerance of the distributed-vs-serial loss check (the one the
/// repository's equivalence tests use).
pub const SERIAL_LOSS_RTOL: f64 = 5e-3;

/// Each distributed loss must be within `rtol` (relative) of the serial
/// trainer's loss for the same epoch.
pub fn losses_close(got: &[f64], want: &[f64], rtol: f64) -> Result<(), String> {
    if got.len() > want.len() {
        return Err(format!("{} losses but only {} reference epochs", got.len(), want.len()));
    }
    for (e, (&g, &w)) in got.iter().zip(want).enumerate() {
        let rel = ((g - w) / w.abs().max(1e-9)).abs();
        if !g.is_finite() || rel.is_nan() || rel >= rtol {
            return Err(format!("epoch {e}: loss {g} vs reference {w} (relative {rel:.2e})"));
        }
    }
    Ok(())
}

/// Loss histories must agree bit for bit over `want`'s epochs.
pub fn losses_bitwise(got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() < want.len() {
        return Err(format!("{} losses, need at least {}", got.len(), want.len()));
    }
    for (e, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(format!("epoch {e}: loss {g:.17} differs from reference {w:.17}"));
        }
    }
    Ok(())
}

/// A served logit row must equal the full-graph forward's row bit for bit.
pub fn logits_bitwise(node: u32, got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("node {node}: {} logits, expected {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| g.to_bits() != w.to_bits()) {
        None => Ok(()),
        Some(c) => {
            Err(format!("node {node}: logit {c} is {} but the forward gives {}", got[c], want[c]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_losses_pass_and_perturbed_fail() {
        let want = [2.0, 1.5, 1.2];
        assert!(losses_close(&[2.001, 1.5, 1.2], &want, SERIAL_LOSS_RTOL).is_ok());
        assert!(losses_close(&[2.0, 1.5 * 1.01, 1.2], &want, SERIAL_LOSS_RTOL).is_err());
        assert!(losses_close(&[f64::NAN], &want, SERIAL_LOSS_RTOL).is_err());
        assert!(losses_close(&[2.0, 1.5, 1.2, 1.0], &want, SERIAL_LOSS_RTOL).is_err());
    }

    #[test]
    fn bitwise_losses_reject_one_ulp() {
        let want = [0.75, 0.5];
        assert!(losses_bitwise(&[0.75, 0.5, 0.25], &want).is_ok());
        let nudged = f64::from_bits(0.5f64.to_bits() + 1);
        assert!(losses_bitwise(&[0.75, nudged], &want).is_err());
        assert!(losses_bitwise(&[0.75], &want).is_err());
    }

    #[test]
    fn bitwise_logits_reject_one_ulp_and_length() {
        let want = [0.1f32, -2.0, 3.5];
        assert!(logits_bitwise(4, &want, &want).is_ok());
        let mut got = want;
        got[1] = f32::from_bits(got[1].to_bits() + 1);
        assert!(logits_bitwise(4, &got, &want).is_err());
        assert!(logits_bitwise(4, &want[..2], &want).is_err());
    }
}
