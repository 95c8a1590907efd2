//! Isolated calls into each layer's public functions, on the shapes a
//! workload uses: block length, queue depth, pending-event population and
//! fan-in. Each figure is the median over several timed batches.

use hop_queue::tagged::TagFilter;
use hop_queue::{Tag, TaggedQueue, TokenQueue};
use hop_sim::EventQueue;
use hop_tensor::{ops, BufferPool, CompressedBlock, CompressionConfig, Compressor, ErrorFeedback};
use hop_util::Xoshiro256;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed batches per figure; the median is reported.
const BATCHES: usize = 5;
/// Wall time each batch aims for.
const BATCH_TIME: Duration = Duration::from_millis(60);

/// The shapes one workload runs the layers at.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// Tagged update-queue depth: `(1 + max_ig) · in-degree`.
    pub queue_depth: usize,
    /// `max_ig` of the token queues.
    pub max_ig: u64,
    /// Pending simulator events: one per worker.
    pub pending_events: usize,
    /// Inputs of a reduce: in-degree + 1.
    pub fan_in: usize,
}

/// Calls `op(reps)` with a rep count sized to [`BATCH_TIME`], and returns
/// the median seconds per rep over [`BATCHES`] batches.
fn per_rep_s(mut op: impl FnMut(u64)) -> f64 {
    let mut reps = 1u64;
    loop {
        let t = Instant::now();
        op(reps);
        let el = t.elapsed();
        if el >= BATCH_TIME / 4 {
            let scale = BATCH_TIME.as_secs_f64() / el.as_secs_f64();
            reps = ((reps as f64 * scale).ceil() as u64).max(1);
            break;
        }
        reps *= 4;
    }
    let mut per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            op(reps);
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[BATCHES / 2]
}

fn gbps(bytes: f64, seconds: f64) -> f64 {
    bytes / seconds / 1e9
}

/// Nanoseconds per pop + push on a calendar queue holding `population`
/// pending events.
pub fn events_churn_ns(population: usize, seed: u64) -> f64 {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut q = EventQueue::with_capacity(population);
    for i in 0..population {
        q.push(0.001 + rng.next_f64() * 0.1, i);
    }
    per_rep_s(|reps| {
        for _ in 0..reps {
            let (now, ev) = q.pop().expect("population stays constant");
            q.push(now + 0.001 + rng.next_f64() * 0.1, black_box(ev));
        }
    }) * 1e9
}

/// Nanoseconds per enqueue + per-iteration dequeue on a tagged queue
/// held at `depth` entries.
pub fn tagged_ns(depth: usize, senders: usize) -> f64 {
    let senders = senders.max(1);
    let mut q = TaggedQueue::unbounded();
    let mut next = 0u64;
    let tag = |n: u64| Tag {
        iter: n / senders as u64,
        w_id: (n % senders as u64) as usize,
    };
    for _ in 0..depth.max(1) {
        q.enqueue(next, tag(next)).expect("unbounded");
        next += 1;
    }
    let mut oldest = 0u64;
    per_rep_s(|reps| {
        for _ in 0..reps {
            q.enqueue(next, tag(next)).expect("unbounded");
            next += 1;
            let t = tag(oldest);
            let got = q.dequeue_up_to(1, TagFilter::exact(t.iter, t.w_id));
            debug_assert_eq!(got.len(), 1);
            black_box(got);
            oldest += 1;
        }
    }) * 1e9
}

/// Nanoseconds per token insert + remove.
pub fn token_ns(max_ig: u64) -> f64 {
    let mut q = TokenQueue::new(max_ig);
    per_rep_s(|reps| {
        for _ in 0..reps {
            q.insert(black_box(1));
            assert!(q.try_remove(black_box(1)));
        }
    }) * 1e9
}

/// Encode and decode throughput of one codec on `input`, in GB/s of
/// dense `f32` input.
pub fn codec_gbps(cfg: CompressionConfig, input: &[f32]) -> (f64, f64) {
    let mut codec = cfg.codec();
    let mut ef = ErrorFeedback::new();
    let mut pool = BufferPool::new();
    let mut block = CompressedBlock::default();
    let bytes = 4.0 * input.len() as f64;
    let enc = per_rep_s(|reps| {
        for _ in 0..reps {
            codec.encode_into(black_box(input), &mut ef, &mut pool, &mut block);
        }
    });
    let mut out = vec![0.0f32; input.len()];
    let dec = per_rep_s(|reps| {
        for _ in 0..reps {
            codec.decode_into(black_box(&block), &mut out);
        }
        black_box(&out);
    });
    (gbps(bytes, enc), gbps(bytes, dec))
}

/// `axpy` and `mean_into` throughput at `len` elements and `fan_in`
/// inputs, in GB/s of memory touched (axpy reads x and y and writes y;
/// mean_into reads every input and writes the output).
pub fn ops_gbps(len: usize, fan_in: usize, seed: u64) -> (f64, f64) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let inputs: Vec<Vec<f32>> = (0..fan_in.max(1))
        .map(|_| (0..len).map(|_| rng.next_f32() - 0.5).collect())
        .collect();
    let mut y = vec![0.0f32; len];
    let axpy = per_rep_s(|reps| {
        for _ in 0..reps {
            ops::axpy(black_box(1e-3), &inputs[0], &mut y);
        }
        black_box(&y);
    });
    let views: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
    let mean = per_rep_s(|reps| {
        for _ in 0..reps {
            ops::mean_into(black_box(&views), &mut y);
        }
        black_box(&y);
    });
    (
        gbps(12.0 * len as f64, axpy),
        gbps(4.0 * (views.len() + 1) as f64 * len as f64, mean),
    )
}

/// `encode_update_frame` and `decode_payload` throughput on the int8
/// block of `input`, in GB/s of frame bytes.
pub fn wire_gbps(input: &[f32]) -> (f64, f64) {
    let mut codec = CompressionConfig::Int8Uniform.codec();
    let mut block = CompressedBlock::default();
    codec.encode_into(
        input,
        &mut ErrorFeedback::new(),
        &mut BufferPool::new(),
        &mut block,
    );
    let tag = Tag { iter: 7, w_id: 1 };
    let mut frame = Vec::new();
    hop_wire::encode_update_frame(tag, 3, &block, &mut frame);
    let bytes = frame.len() as f64;
    let enc = per_rep_s(|reps| {
        for _ in 0..reps {
            black_box(hop_wire::encode_update_frame(
                tag,
                3,
                black_box(&block),
                &mut frame,
            ));
        }
    });
    let dec = per_rep_s(|reps| {
        for _ in 0..reps {
            let msg = hop_wire::decode_payload(black_box(&frame[4..])).expect("own frame decodes");
            black_box(msg);
        }
    });
    (gbps(bytes, enc), gbps(bytes, dec))
}
