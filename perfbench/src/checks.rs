//! Output checks computed apart from the program: each one recomputes
//! what a correct run must produce from the run's raw records and the
//! benchmark's own arithmetic, never from a stored copy of an earlier
//! output.

use hop_core::{ProtocolEvent, ProtocolTrace};
use hop_graph::Topology;
use hop_sim::trace::IterationRecord;
use hop_tensor::{CompressedBlock, CompressionConfig};

/// Replays iteration-entry records and confirms that along every
/// external edge `i -> j` the gap `Iter(i) - Iter(j)` never exceeds
/// `bound` (a worker takes a token from each out-going neighbour's
/// queue to advance, so it can run at most `max_ig` iterations ahead of
/// any of them).
pub fn check_gaps(topo: &Topology, records: &[IterationRecord], bound: u64) -> Result<(), String> {
    let mut current = vec![0u64; topo.len()];
    for r in records {
        if r.worker >= current.len() {
            return Err(format!(
                "record names worker {} of {}",
                r.worker,
                topo.len()
            ));
        }
        if r.iter < current[r.worker] {
            return Err(format!(
                "worker {} went back from iteration {} to {}",
                r.worker, current[r.worker], r.iter
            ));
        }
        current[r.worker] = r.iter;
        for &j in topo.external_out_neighbors(r.worker) {
            let gap = r.iter.saturating_sub(current[j]);
            if gap > bound {
                return Err(format!(
                    "gap along {} -> {j} reached {gap} (iterations {} vs {}), bound {bound}",
                    r.worker, r.iter, current[j]
                ));
            }
        }
    }
    Ok(())
}

/// Encoded size of one update block of `len` parameters, as the wire
/// format defines it: `4·len` dense, `8 + len` int8 (length word, scale,
/// one byte per entry), `4 + 8·k` top-k (length word, `(index, value)`
/// pairs).
pub fn block_bytes(codec: CompressionConfig, len: usize) -> u64 {
    match codec {
        CompressionConfig::Identity => 4 * len as u64,
        CompressionConfig::Int8Uniform => 8 + len as u64,
        CompressionConfig::TopK { ratio } => 4 + 8 * topk_k(ratio, len) as u64,
    }
}

/// `ceil(ratio · len)`, at least 1 and at most `len`.
fn topk_k(ratio: f32, len: usize) -> usize {
    ((len as f64 * f64::from(ratio)).ceil() as usize).clamp(1, len.max(1))
}

/// External sends (`from != to`) in a protocol trace.
pub fn external_sends(trace: &ProtocolTrace) -> u64 {
    trace
        .events()
        .iter()
        .filter(|e| matches!(e, ProtocolEvent::Send { from, to, .. } if from != to))
        .count() as u64
}

/// `bytes_sent` must equal the external sends times the block size.
pub fn check_bytes(trace: &ProtocolTrace, bytes_sent: u64, per_block: u64) -> Result<(), String> {
    let sends = external_sends(trace);
    if sends * per_block != bytes_sent {
        return Err(format!(
            "bytes_sent {bytes_sent} != {sends} external sends x {per_block} B"
        ));
    }
    Ok(())
}

/// An int8 block decoded by the program (`decoded`) must lie within half
/// a quantisation step of the input it was encoded from (with no error
/// feedback carried in), at the step `max|v| / 127`.
pub fn check_int8(input: &[f32], block: &CompressedBlock, decoded: &[f32]) -> Result<(), String> {
    let CompressedBlock::Quantized { scale, values } = block else {
        return Err("int8 encoder produced a non-quantized block".into());
    };
    if values.len() != input.len() || decoded.len() != input.len() {
        return Err("int8 block length differs from its input".into());
    }
    let max_abs = input.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let step = max_abs / 127.0;
    if (scale - step).abs() > step * 1e-6 {
        return Err(format!("int8 scale {scale} != max|v|/127 = {step}"));
    }
    for (i, (&x, &y)) in input.iter().zip(decoded).enumerate() {
        let err = (x - y).abs();
        if err.is_nan() || err > step * 0.5 * (1.0 + 1e-5) + f32::EPSILON * x.abs() {
            return Err(format!(
                "int8 entry {i}: |{x} - {y}| = {err} > half step {}",
                step * 0.5
            ));
        }
    }
    Ok(())
}

/// A top-k block must keep exactly the `k` largest `|v|` (ties to the
/// lower index), at their exact values, and decode to zero elsewhere.
pub fn check_topk(
    ratio: f32,
    input: &[f32],
    block: &CompressedBlock,
    decoded: &[f32],
) -> Result<(), String> {
    let CompressedBlock::Sparse {
        len,
        indices,
        values,
    } = block
    else {
        return Err("top-k encoder produced a non-sparse block".into());
    };
    if *len as usize != input.len() || decoded.len() != input.len() {
        return Err("top-k block length differs from its input".into());
    }
    let mut order: Vec<usize> = (0..input.len()).collect();
    order.sort_by(|&a, &b| {
        input[b]
            .abs()
            .total_cmp(&input[a].abs())
            .then_with(|| a.cmp(&b))
    });
    order.truncate(topk_k(ratio, input.len()));
    order.sort_unstable();
    let kept: Vec<usize> = indices.iter().map(|&i| i as usize).collect();
    if kept != order {
        return Err(format!(
            "top-k kept {} entries that are not the {} largest |v|",
            kept.len(),
            order.len()
        ));
    }
    for (&i, &v) in kept.iter().zip(values) {
        if v.to_bits() != input[i].to_bits() {
            return Err(format!("top-k entry {i} carries {v}, input {}", input[i]));
        }
    }
    let mut expected = vec![0.0f32; input.len()];
    for &i in &kept {
        expected[i] = input[i];
    }
    if expected
        .iter()
        .zip(decoded)
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err("top-k decode differs from the kept entries".into());
    }
    Ok(())
}

/// The final eval loss must be below the first by at least `factor`, and
/// every final parameter must be finite.
pub fn check_convergence(
    eval: &[(f64, f64)],
    final_params: &[Vec<f32>],
    factor: f64,
) -> Result<(), String> {
    let (Some(&(_, first)), Some(&(_, last))) = (eval.first(), eval.last()) else {
        return Err("no eval points".into());
    };
    if last.is_nan() || last * factor > first {
        return Err(format!(
            "eval loss {first} -> {last} fell by less than {factor}x"
        ));
    }
    if final_params.iter().flatten().any(|v| !v.is_finite()) {
        return Err("a final parameter is not finite".into());
    }
    Ok(())
}

/// Bitwise equality of two sets of per-worker parameter vectors.
pub fn check_params_equal(what: &str, a: &[Vec<f32>], b: &[Vec<f32>]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} vs {} workers", a.len(), b.len()));
    }
    for (w, (x, y)) in a.iter().zip(b).enumerate() {
        if x.len() != y.len() || x.iter().zip(y).any(|(p, q)| p.to_bits() != q.to_bits()) {
            return Err(format!("{what}: worker {w} parameters differ"));
        }
    }
    Ok(())
}

/// Equality of two report-digest tables (a timed round or the 2-thread
/// sweep against the points run one at a time).
/// A failed point (`None`) never matches.
pub fn check_digests(got: &[Option<u64>], reference: &[Option<u64>]) -> Result<(), String> {
    if got.contains(&None) || reference.contains(&None) {
        return Err(format!(
            "a point failed: digests {got:x?}, reference {reference:x?}"
        ));
    }
    if got != reference {
        return Err(format!(
            "digests {got:x?} differ from the reference {reference:x?}"
        ));
    }
    Ok(())
}

/// Virtual time at which an eval-loss curve first reaches `target`,
/// interpolated linearly between the two eval points that bracket the
/// crossing (the curve is only sampled every `eval_every` iterations).
pub fn time_to_target(eval: &[(f64, f64)], target: f64) -> Option<f64> {
    let mut prev: Option<(f64, f64)> = None;
    for &(t, v) in eval {
        if v <= target {
            return Some(match prev {
                Some((t0, v0)) if v0 > v => t0 + (t - t0) * (v0 - target) / (v0 - v),
                _ => t,
            });
        }
        prev = Some((t, v));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hop_tensor::{BufferPool, Compressor, ErrorFeedback};

    fn rec(worker: usize, iter: u64) -> IterationRecord {
        IterationRecord {
            worker,
            iter,
            time: 0.0,
        }
    }

    #[test]
    fn gaps_reject_a_worker_too_far_ahead() {
        let topo = Topology::ring(3);
        let ok: Vec<_> = [(0, 1), (1, 1), (0, 2), (2, 1), (0, 3)]
            .iter()
            .map(|&(w, k)| rec(w, k))
            .collect();
        assert!(check_gaps(&topo, &ok, 2).is_ok());
        let bad: Vec<_> = (1..=3).map(|k| rec(0, k)).collect();
        assert!(check_gaps(&topo, &bad, 2).is_err());
        assert!(check_gaps(&topo, &[rec(0, 2), rec(0, 1)], 5).is_err());
    }

    #[test]
    fn bytes_reject_a_wrong_total() {
        let mut trace = ProtocolTrace::new();
        for (from, to) in [(0, 1), (1, 0), (0, 0)] {
            trace.push(ProtocolEvent::Send { from, to, iter: 0 });
        }
        let per = block_bytes(CompressionConfig::Int8Uniform, 10);
        assert_eq!(per, 18);
        assert!(check_bytes(&trace, 36, per).is_ok());
        assert!(check_bytes(&trace, 54, per).is_err());
        assert_eq!(
            block_bytes(CompressionConfig::TopK { ratio: 0.01 }, 1000),
            4 + 8 * 10
        );
        assert_eq!(block_bytes(CompressionConfig::Identity, 7), 28);
    }

    fn encode(cfg: CompressionConfig, input: &[f32]) -> (CompressedBlock, Vec<f32>) {
        let mut codec = cfg.codec();
        let mut block = CompressedBlock::default();
        codec.encode_into(
            input,
            &mut ErrorFeedback::new(),
            &mut BufferPool::new(),
            &mut block,
        );
        let mut out = vec![0.0; input.len()];
        codec.decode_into(&block, &mut out);
        (block, out)
    }

    #[test]
    fn int8_check_accepts_the_codec_and_rejects_a_bad_decode() {
        let input: Vec<f32> = (0..257).map(|i| ((i * 37) % 101) as f32 - 50.3).collect();
        let (block, mut out) = encode(CompressionConfig::Int8Uniform, &input);
        assert!(check_int8(&input, &block, &out).is_ok());
        out[3] += 1.0;
        assert!(check_int8(&input, &block, &out).is_err());
    }

    #[test]
    fn topk_check_accepts_the_codec_and_rejects_a_wrong_set() {
        let input: Vec<f32> = (0..300).map(|i| ((i * 53) % 97) as f32 - 48.0).collect();
        let cfg = CompressionConfig::TopK { ratio: 0.05 };
        let (block, out) = encode(cfg, &input);
        assert!(check_topk(0.05, &input, &block, &out).is_ok());
        let CompressedBlock::Sparse {
            len,
            mut indices,
            values,
        } = block
        else {
            panic!("top-k block");
        };
        indices[0] = (0..300u32)
            .find(|i| !indices.contains(i))
            .expect("free index");
        indices.sort_unstable();
        let bad = CompressedBlock::Sparse {
            len,
            indices,
            values,
        };
        assert!(check_topk(0.05, &input, &bad, &out).is_err());
    }

    #[test]
    fn convergence_rejects_a_flat_curve_and_nan() {
        let eval = [(0.0, 1.0), (1.0, 0.4)];
        assert!(check_convergence(&eval, &[vec![1.0]], 2.0).is_ok());
        assert!(check_convergence(&eval, &[vec![1.0]], 3.0).is_err());
        assert!(check_convergence(&eval, &[vec![f32::NAN]], 2.0).is_err());
    }

    #[test]
    fn equality_checks_reject_differences() {
        let a = vec![vec![1.0f32, 2.0]];
        assert!(check_params_equal("x", &a, &a).is_ok());
        assert!(check_params_equal("x", &a, &[vec![1.0, 2.0000002]]).is_err());
        assert!(check_digests(&[Some(1), Some(2)], &[Some(1), Some(2)]).is_ok());
        assert!(check_digests(&[Some(1), Some(2)], &[Some(2), Some(1)]).is_err());
        assert!(check_digests(&[None], &[None]).is_err());
    }

    #[test]
    fn time_to_target_interpolates() {
        let eval = [(0.0, 1.0), (2.0, 0.6), (4.0, 0.2)];
        assert_eq!(time_to_target(&eval, 0.4), Some(3.0));
        assert_eq!(time_to_target(&eval, 1.0), Some(0.0));
        assert_eq!(time_to_target(&eval, 0.1), None);
    }
}
