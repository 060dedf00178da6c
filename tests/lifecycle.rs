//! Sketch lifecycle: versioned checkpoint/restore and cross-process merge.
//!
//! The codec contract under test:
//!
//! * **Round trips are exact.** `save` → `restore` reproduces sketch tables,
//!   counters, trackers and estimates bit for bit, including non-finite
//!   table values, and a restored sketch *continues the stream* exactly as
//!   the original would have.
//! * **Restore never panics.** Truncated input, flipped header bytes, a
//!   bumped format version and corrupt payload fields all surface as typed
//!   [`CodecError`] variants.
//! * **Merges are checked.** Restoring into an incompatible receiver
//!   (different seed, geometry or backend) is a typed error, not silent
//!   corruption.
//!
//! The companion merge-equals-sequential equivalence proofs live in
//! `tests/ingestion_equivalence.rs`; this file owns the codec surface.

use ascs::prelude::*;
use proptest::prelude::*;

fn hyper(t0: u64, theta: f64, tau0: f64) -> HyperParameters {
    HyperParameters {
        t0,
        theta,
        tau0,
        delta: 0.05,
        delta_star: 0.2,
    }
}

fn base_config(dim: u64, total: u64, seed: u64) -> AscsConfig {
    AscsConfig {
        dim,
        total_samples: total,
        geometry: SketchGeometry::new(5, 2048),
        alpha: 0.05,
        signal_strength: 0.5,
        sigma: 1.0,
        delta: 0.05,
        delta_star: 0.20,
        tau0: 1e-3,
        estimand: EstimandKind::Covariance,
        update_mode: UpdateMode::Product,
        seed,
        top_k_capacity: 32,
    }
}

/// Deterministic dyadic sample stream (values in {-1, -0.5, 0, 0.5, 1}).
fn dyadic_samples(dim: u64, total: u64, salt: u64) -> Vec<Sample> {
    (1..=total)
        .map(|t| {
            let values: Vec<f64> = (0..dim)
                .map(|f| ((t * 31 + f * 7 + salt) % 5) as f64 * 0.5 - 1.0)
                .collect();
            Sample::dense(values)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Count sketch round trips reproduce the table bit for bit across
    /// random geometries — including more rows than a hash plan supports
    /// ([`MAX_ROWS`] = 16), empty sketches, and non-finite table values —
    /// and every post-restore estimate matches the original exactly.
    #[test]
    fn count_sketch_roundtrip_is_bit_identical(
        rows in 1usize..20,
        range in 1usize..256,
        seed in 0u64..1000,
        updates in proptest::collection::vec((0u64..256, -8.0f64..8.0), 0..200),
        poison in proptest::bool::ANY,
    ) {
        let mut cs = CountSketch::new(rows, range, seed);
        for &(key, w) in &updates {
            cs.update(key, w);
        }
        if poison {
            // Non-finite values must survive the trip through `to_bits`.
            cs.update(3, f64::INFINITY);
            cs.update(5, f64::NEG_INFINITY);
            cs.update(7, f64::NAN);
        }
        let mut bytes = Vec::new();
        cs.save(&mut bytes).unwrap();
        let back = CountSketch::restore(&mut bytes.as_slice()).unwrap();
        prop_assert_eq!(back.rows(), cs.rows());
        prop_assert_eq!(back.range(), cs.range());
        prop_assert_eq!(back.update_count(), cs.update_count());
        prop_assert!(
            cs.table().iter().zip(back.table()).all(|(a, b)| a.to_bits() == b.to_bits()),
            "restored table diverged"
        );
        for key in 0..256u64 {
            prop_assert_eq!(cs.estimate(key).to_bits(), back.estimate(key).to_bits());
        }
    }

    /// Top-k tracker round trips preserve capacity, offer count, admission
    /// bar behaviour and the reported descending order exactly.
    #[test]
    fn tracker_roundtrip_preserves_report_and_admission_state(
        capacity in 1usize..24,
        offers in proptest::collection::vec((0u64..64, -4.0f64..4.0), 0..200),
    ) {
        let mut tracker = TopKTracker::new(capacity);
        for &(key, v) in &offers {
            tracker.offer(key, v.abs());
        }
        let mut bytes = Vec::new();
        tracker.save(&mut bytes).unwrap();
        let mut back = TopKTracker::restore(&mut bytes.as_slice()).unwrap();
        prop_assert_eq!(back.capacity(), tracker.capacity());
        prop_assert_eq!(back.offers(), tracker.offers());
        prop_assert_eq!(back.descending(), tracker.descending());
        // The admission bar survived: identical future offers decide alike.
        for probe in [(999u64, 0.0), (998, 0.5), (997, 10.0)] {
            tracker.offer(probe.0, probe.1);
            back.offer(probe.0, probe.1);
            prop_assert_eq!(back.descending(), tracker.descending());
        }
    }

    /// A restored ASCS sketch continues the stream bit-identically: same
    /// gate decisions, tables, counters and tracker report as the original
    /// that never stopped.
    #[test]
    fn restored_ascs_continues_stream_bit_identically(
        range in 8usize..512,
        total in 32u64..200,
        t0_frac in 0.05f64..1.0,
        theta in 0.0f64..0.5,
        seed in 0u64..1000,
        updates in proptest::collection::vec((0u64..64, -2.0f64..2.0), 2..200),
    ) {
        let t0 = ((total as f64 * t0_frac) as u64).clamp(1, total);
        let hp = hyper(t0, theta, 1e-3);
        let geometry = SketchGeometry::new(5, range);
        let mut original = AscsSketch::new(geometry, &hp, total, 16, seed);
        let split = updates.len() / 2;
        for (i, &(key, x)) in updates[..split].iter().enumerate() {
            original.offer(key, x, (i as u64 % total) + 1);
        }
        let mut bytes = Vec::new();
        original.save(&mut bytes).unwrap();
        let mut resumed = AscsSketch::restore(&mut bytes.as_slice()).unwrap();
        for (i, &(key, x)) in updates[split..].iter().enumerate() {
            let t = ((split + i) as u64 % total) + 1;
            let a = original.offer(key, x, t);
            let b = resumed.offer(key, x, t);
            prop_assert_eq!(a, b, "offer outcome diverged after resume");
        }
        prop_assert!(
            original
                .sketch()
                .table()
                .iter()
                .zip(resumed.sketch().table())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "tables diverged after resume"
        );
        prop_assert_eq!(original.inserted_updates(), resumed.inserted_updates());
        prop_assert_eq!(original.skipped_updates(), resumed.skipped_updates());
        prop_assert_eq!(original.top_pairs(), resumed.top_pairs());
    }

    /// Every strict prefix of a record is reported as truncated — never a
    /// panic, never a silent partial restore.
    #[test]
    fn every_truncation_of_an_ascs_record_is_typed(
        seed in 0u64..200,
        updates in proptest::collection::vec((0u64..32, -2.0f64..2.0), 1..60),
    ) {
        let hp = hyper(8, 0.3, 1e-3);
        let mut sketch = AscsSketch::new(SketchGeometry::new(2, 8), &hp, 64, 4, seed);
        for (i, &(key, x)) in updates.iter().enumerate() {
            sketch.offer(key, x, (i as u64 % 64) + 1);
        }
        let mut bytes = Vec::new();
        sketch.save(&mut bytes).unwrap();
        for cut in 0..bytes.len() {
            match AscsSketch::restore(&mut &bytes[..cut]) {
                Err(CodecError::Truncated) => {}
                Err(other) => prop_assert!(false, "cut {} gave {:?}", cut, other),
                Ok(_) => prop_assert!(false, "cut {} restored successfully", cut),
            }
        }
    }
}

#[test]
fn header_corruption_is_detected_per_field() {
    let mut cs = CountSketch::new(3, 64, 42);
    cs.update(1, 1.5);
    let mut bytes = Vec::new();
    cs.save(&mut bytes).unwrap();

    let dim = 12u64;
    let total = 16u64;
    let mut estimator = CovarianceEstimator::with_hyperparameters(
        base_config(dim, total, 5),
        SketchBackend::Ascs,
        Some(hyper(4, 0.25, 1e-3)),
    );
    for s in &dyadic_samples(dim, total / 2, 0) {
        estimator.process_sample(s);
    }
    let mut estimator_bytes = Vec::new();
    estimator.checkpoint(&mut estimator_bytes).unwrap();

    type Restore = fn(&[u8]) -> Result<(), CodecError>;
    let records: [(&str, &[u8], Restore); 2] = [
        ("CountSketch", &bytes, |b| {
            CountSketch::restore(&mut &b[..]).map(drop)
        }),
        ("CovarianceEstimator", &estimator_bytes, |b| {
            CovarianceEstimator::resume(&mut &b[..]).map(drop)
        }),
    ];
    for (what, record, restore) in records {
        let mut bad_magic = record.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(
            matches!(restore(&bad_magic), Err(CodecError::BadMagic(_))),
            "{what}: flipped magic byte"
        );

        // A future format version is refused outright (no migration policy).
        let mut bumped = record.to_vec();
        bumped[4] = 2;
        assert!(
            matches!(restore(&bumped), Err(CodecError::UnsupportedVersion(2))),
            "{what}: bumped version byte"
        );
    }

    // Restoring the wrong record type is refused by tag.
    assert!(matches!(
        AscsSketch::restore(&mut bytes.as_slice()),
        Err(CodecError::WrongRecord { .. })
    ));
}

#[test]
fn corrupt_payload_fields_are_typed_not_panics() {
    let hp = hyper(8, 0.2, 1e-3);
    let mut sketch = AscsSketch::new(SketchGeometry::new(3, 32), &hp, 64, 8, 7);
    for t in 1..=40u64 {
        sketch.offer(t % 16, 0.5, t);
    }
    let mut bytes = Vec::new();
    sketch.save(&mut bytes).unwrap();
    // Flipping any single byte must never panic; it either restores to
    // some valid state (a flipped table bit is indistinguishable from a
    // different stream) or surfaces a typed error.
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x41;
        let _ = AscsSketch::restore(&mut corrupt.as_slice());
    }
    // A corrupted stream length (t0 > total) is caught by validation.
    let mut bad = bytes.clone();
    // Header is 7 bytes; t0 (u64) then total (u64) follow.
    bad[7..15].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        AscsSketch::restore(&mut bad.as_slice()),
        Err(CodecError::Corrupt(_))
    ));
}

#[test]
fn sharded_roundtrip_restores_workers_and_router() {
    let hp = hyper(16, 0.3, 1e-3);
    let geometry = SketchGeometry::new(5, 128);
    let mut sharded = ShardedAscs::new(geometry, &hp, 128, 16, 11, 3).with_parallel_threshold(1);
    let batch: Vec<ShardUpdate> = (0..200u64)
        .map(|i| ShardUpdate {
            key: i % 48,
            value: f64::from((i % 7) as i32 - 3) * 0.25,
            t: (i % 128) + 1,
        })
        .collect();
    sharded.offer_batch(&batch);

    let mut bytes = Vec::new();
    sharded.save(&mut bytes).unwrap();
    let mut back = ShardedAscs::restore(&mut bytes.as_slice()).unwrap();
    assert_eq!(back.workers().len(), sharded.workers().len());
    assert_eq!(back.inserted_updates(), sharded.inserted_updates());
    assert_eq!(back.skipped_updates(), sharded.skipped_updates());
    for key in 0..48u64 {
        assert_eq!(
            back.estimate(key).to_bits(),
            sharded.estimate(key).to_bits()
        );
    }
    assert_eq!(back.top_pairs(), sharded.top_pairs());

    // The restored shard set keeps ingesting identically.
    let more: Vec<ShardUpdate> = (0..60u64)
        .map(|i| ShardUpdate {
            key: (i * 5) % 48,
            value: 0.5,
            t: (i % 128) + 1,
        })
        .collect();
    sharded.offer_batch(&more);
    back.offer_batch(&more);
    for key in 0..48u64 {
        assert_eq!(
            back.estimate(key).to_bits(),
            sharded.estimate(key).to_bits()
        );
    }

    // Truncations of the nested record stack are typed.
    for cut in [0, 3, 6, 10, 40, bytes.len() / 2, bytes.len() - 1] {
        assert!(matches!(
            ShardedAscs::restore(&mut &bytes[..cut]),
            Err(CodecError::Truncated)
        ));
    }
}

#[test]
fn estimator_resume_is_bit_identical_for_every_cs_backend() {
    let dim = 24u64;
    let total = 64u64;
    let samples = dyadic_samples(dim, total, 0);
    for backend in [
        SketchBackend::Ascs,
        SketchBackend::VanillaCs,
        SketchBackend::ShardedAscs { shards: 3 },
    ] {
        let config = base_config(dim, total, 21);
        let hp = Some(hyper(8, 0.25, 1e-3));
        let mut uninterrupted = CovarianceEstimator::with_hyperparameters(config, backend, hp);
        let mut front = CovarianceEstimator::with_hyperparameters(config, backend, hp);
        let half = samples.len() / 2;
        for s in &samples {
            uninterrupted.process_sample(s);
        }
        for s in &samples[..half] {
            front.process_sample(s);
        }
        let mut bytes = Vec::new();
        front.checkpoint(&mut bytes).unwrap();
        let mut resumed = CovarianceEstimator::resume(&mut bytes.as_slice()).unwrap();
        assert_eq!(
            resumed.top_pairs(usize::MAX),
            front.top_pairs(usize::MAX),
            "{backend:?}: restored tracker differs from the checkpointed one"
        );
        for s in &samples[half..] {
            resumed.process_sample(s);
        }
        assert_eq!(
            resumed.processed_samples(),
            uninterrupted.processed_samples()
        );
        assert_eq!(resumed.update_counts(), uninterrupted.update_counts());
        let (a, b) = (uninterrupted.all_estimates(), resumed.all_estimates());
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{backend:?}: resumed estimates diverged from the uninterrupted run"
        );
        // Every checkpoint cut must be typed, never a panic.
        for cut in [0, 5, 6, 20, bytes.len() / 3, bytes.len() - 1] {
            assert!(matches!(
                CovarianceEstimator::resume(&mut &bytes[..cut]),
                Err(CodecError::Truncated)
            ));
        }
    }
}

#[test]
fn planned_estimator_resumes_bit_identically_without_the_plan() {
    // The plan arena is deliberately not serialized (it is pure derived
    // state); a resumed estimator runs the hashed path, which is already
    // proven bit-identical to the planned path — and can re-attach a plan.
    let dim = 24u64;
    let total = 64u64;
    let samples = dyadic_samples(dim, total, 3);
    let config = base_config(dim, total, 9);
    let mut planned = CovarianceEstimator::new(config, SketchBackend::VanillaCs)
        .unwrap()
        .with_ingestion_plan()
        .unwrap();
    let mut front = CovarianceEstimator::new(config, SketchBackend::VanillaCs)
        .unwrap()
        .with_ingestion_plan()
        .unwrap();
    let half = samples.len() / 2;
    for s in &samples {
        planned.process_sample(s);
    }
    for s in &samples[..half] {
        front.process_sample(s);
    }
    let mut bytes = Vec::new();
    front.checkpoint(&mut bytes).unwrap();
    let mut resumed = CovarianceEstimator::resume(&mut bytes.as_slice()).unwrap();
    assert!(resumed.ingestion_plan().is_none());
    resumed
        .attach_ingestion_plan()
        .expect("plan re-attaches after resume");
    for s in &samples[half..] {
        resumed.process_sample(s);
    }
    let (a, b) = (planned.all_estimates(), resumed.all_estimates());
    assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
}

#[test]
fn filter_backends_refuse_to_checkpoint_with_a_typed_error() {
    let config = base_config(16, 64, 5);
    let est = CovarianceEstimator::new(
        config,
        SketchBackend::AugmentedSketch {
            filter_capacity: 16,
        },
    )
    .unwrap();
    let mut bytes = Vec::new();
    assert!(matches!(
        est.checkpoint(&mut bytes),
        Err(CodecError::Unsupported(_))
    ));
}

#[test]
fn merging_incompatible_checkpoints_is_a_typed_error() {
    let geometry = SketchGeometry::new(4, 64);
    let mut a = AscsSketch::vanilla(geometry, 64, 8, 1);
    let mut b_seed = AscsSketch::vanilla(geometry, 64, 8, 2);
    let mut b_total = AscsSketch::vanilla(geometry, 128, 8, 1);
    let mut b_geom = AscsSketch::vanilla(SketchGeometry::new(4, 128), 64, 8, 1);
    for t in 1..=32u64 {
        for s in [&mut a, &mut b_seed, &mut b_total, &mut b_geom] {
            s.offer(t % 8, 0.25, t.min(64));
        }
    }
    for other in [&b_seed, &b_total, &b_geom] {
        let mut bytes = Vec::new();
        other.save(&mut bytes).unwrap();
        let before: Vec<u64> = a.sketch().table().iter().map(|v| v.to_bits()).collect();
        assert!(matches!(
            a.merge_from_checkpoint(&mut bytes.as_slice()),
            Err(CodecError::Incompatible(_))
        ));
        // A refused merge must leave the receiver untouched.
        let after: Vec<u64> = a.sketch().table().iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after);
    }

    // Estimator-level: a checkpoint from a different configuration or
    // backend kind is refused.
    let samples = dyadic_samples(16, 64, 1);
    let config = base_config(16, 64, 5);
    let mut other_config = config;
    other_config.seed = 6;
    let mut left = CovarianceEstimator::new(config, SketchBackend::VanillaCs).unwrap();
    let mut right = CovarianceEstimator::new(other_config, SketchBackend::VanillaCs).unwrap();
    let mut wrong_kind = CovarianceEstimator::with_hyperparameters(
        config,
        SketchBackend::Ascs,
        Some(hyper(8, 0.2, 1e-3)),
    );
    for s in &samples[..32] {
        left.process_sample(s);
        right.process_sample(s);
        wrong_kind.process_sample(s);
    }
    for bad in [&right, &wrong_kind] {
        let mut bytes = Vec::new();
        bad.checkpoint(&mut bytes).unwrap();
        assert!(matches!(
            left.merge_from_checkpoint(&mut bytes.as_slice()),
            Err(CodecError::Incompatible(_))
        ));
    }
}

/// **Segment-ring codec round trip.** A windowed sketch saved mid-window
/// (head segment partially filled) restores to bit-identical state and
/// *continues the stream* exactly like the original — rotations, retires
/// and estimates alike. Same for the decayed generation stack.
#[test]
fn time_aware_sketch_roundtrips_continue_the_stream_bit_identically() {
    let total = 300u64;
    let split = 137u64; // mid-block for segment_len 16 — not a boundary
    let mut win = WindowedSketch::new(3, 128, 13, 16, 4);
    let mut dec = DecayedSketch::new(3, 128, 13, 0.97);
    let feed = |w: &mut WindowedSketch, d: &mut DecayedSketch, t: u64| {
        let _ = w.begin_sample();
        d.begin_sample();
        for key in 0..10u64 {
            let u = ((t * 11 + key * 3) % 9) as f64 * 0.25 - 1.0;
            w.ingest(key, u);
            d.ingest(key, u);
        }
    };
    for t in 1..=split {
        feed(&mut win, &mut dec, t);
    }
    let mut win_bytes = Vec::new();
    let mut dec_bytes = Vec::new();
    win.save(&mut win_bytes).unwrap();
    dec.save(&mut dec_bytes).unwrap();
    let mut win_back = WindowedSketch::restore(&mut win_bytes.as_slice()).unwrap();
    let mut dec_back = DecayedSketch::restore(&mut dec_bytes.as_slice()).unwrap();
    assert_eq!(win_back.t(), win.t());
    assert_eq!(win_back.window_span(), win.window_span());
    assert_eq!(win_back.retired_segments(), win.retired_segments());
    assert_eq!(dec_back.t(), dec.t());
    assert_eq!(dec_back.generation_count(), dec.generation_count());
    assert_eq!(dec_back.table_write_ops(), dec.table_write_ops());
    for key in 0..64u64 {
        assert_eq!(
            win_back.estimate(key).to_bits(),
            win.estimate(key).to_bits()
        );
        assert_eq!(
            dec_back.estimate(key).to_bits(),
            dec.estimate(key).to_bits()
        );
    }
    // The restored sketches keep rotating/retiring in lockstep with the
    // originals across several further block boundaries.
    for t in split + 1..=total {
        feed(&mut win, &mut dec, t);
        feed(&mut win_back, &mut dec_back, t);
    }
    assert_eq!(win_back.retired_segments(), win.retired_segments());
    assert_eq!(dec_back.rotations(), dec.rotations());
    for key in 0..64u64 {
        assert_eq!(
            win_back.estimate(key).to_bits(),
            win.estimate(key).to_bits(),
            "windowed estimate diverged after resume at key {key}"
        );
        assert_eq!(
            dec_back.estimate(key).to_bits(),
            dec.estimate(key).to_bits(),
            "decayed estimate diverged after resume at key {key}"
        );
    }
}

/// Every strict prefix of a windowed, decayed or retired-segment record is
/// a typed [`CodecError::Truncated`]; every single-byte corruption is a
/// typed error or a valid restore — never a panic. Header corruptions are
/// detected per field, and mismatched record tags are refused.
#[test]
fn time_aware_records_survive_the_truncation_and_corruption_sweep() {
    let mut win = WindowedSketch::new(2, 16, 5, 4, 3);
    let mut dec = DecayedSketch::new(2, 16, 5, 0.9);
    let mut retired = None;
    for t in 1..=20u64 {
        if let Some(seg) = win.begin_sample() {
            retired = Some(seg);
        }
        dec.begin_sample();
        for key in 0..6u64 {
            let u = ((t + key) % 5) as f64 * 0.5 - 1.0;
            win.ingest(key, u);
            dec.ingest(key, u);
        }
    }
    let retired = retired.expect("20 samples at 4×3 must retire a segment");
    let mut win_bytes = Vec::new();
    let mut dec_bytes = Vec::new();
    let mut seg_bytes = Vec::new();
    win.save(&mut win_bytes).unwrap();
    dec.save(&mut dec_bytes).unwrap();
    retired.save(&mut seg_bytes).unwrap();

    for cut in 0..win_bytes.len() {
        assert!(
            matches!(
                WindowedSketch::restore(&mut &win_bytes[..cut]),
                Err(CodecError::Truncated)
            ),
            "windowed cut {cut} was not typed as truncation"
        );
    }
    for cut in 0..dec_bytes.len() {
        assert!(
            matches!(
                DecayedSketch::restore(&mut &dec_bytes[..cut]),
                Err(CodecError::Truncated)
            ),
            "decayed cut {cut} was not typed as truncation"
        );
    }
    for cut in 0..seg_bytes.len() {
        assert!(
            matches!(
                RetiredSegment::restore(&mut &seg_bytes[..cut]),
                Err(CodecError::Truncated)
            ),
            "segment cut {cut} was not typed as truncation"
        );
    }

    // Single-byte XOR over every record: typed error or valid restore,
    // never a panic.
    for bytes in [&win_bytes, &dec_bytes, &seg_bytes] {
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x41;
            let _ = WindowedSketch::restore(&mut corrupt.as_slice());
            let _ = DecayedSketch::restore(&mut corrupt.as_slice());
            let _ = RetiredSegment::restore(&mut corrupt.as_slice());
        }
    }

    // Header field checks: magic, future version, record-tag confusion.
    let mut bad_magic = win_bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        WindowedSketch::restore(&mut bad_magic.as_slice()),
        Err(CodecError::BadMagic(_))
    ));
    let mut bumped = dec_bytes.clone();
    bumped[4] = 2;
    assert!(matches!(
        DecayedSketch::restore(&mut bumped.as_slice()),
        Err(CodecError::UnsupportedVersion(2))
    ));
    assert!(matches!(
        WindowedSketch::restore(&mut dec_bytes.as_slice()),
        Err(CodecError::WrongRecord { .. })
    ));
    assert!(matches!(
        DecayedSketch::restore(&mut seg_bytes.as_slice()),
        Err(CodecError::WrongRecord { .. })
    ));
    assert!(matches!(
        RetiredSegment::restore(&mut win_bytes.as_slice()),
        Err(CodecError::WrongRecord { .. })
    ));

    // Key-partition merges demand identical clocks: a ring two samples
    // behind is refused, and the refusal leaves the receiver untouched.
    let stale = WindowedSketch::restore(&mut win_bytes.as_slice()).unwrap();
    let _ = win.begin_sample();
    let before: Vec<u64> = win
        .merged_sketch()
        .table()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert!(matches!(
        win.merge_restored(&stale),
        Err(CodecError::Incompatible(_))
    ));
    let after: Vec<u64> = win
        .merged_sketch()
        .table()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(before, after, "refused merge mutated the receiver");
}

/// **Estimator checkpoint → resume, mid-window.** Both time-aware
/// backends checkpoint at a stream time that is *not* a segment boundary
/// and resume bit-identically through further retires/rotations — the
/// whole ring (head fill level included) survives the trip. Truncated
/// checkpoints stay typed.
#[test]
fn estimator_resume_is_bit_identical_for_time_aware_backends() {
    let dim = 24u64;
    let total = 128u64;
    let samples = dyadic_samples(dim, total, 5);
    for backend in [
        SketchBackend::Windowed {
            segment_len: 16,
            segments: 4,
        },
        SketchBackend::Decayed { gamma: 0.96 },
    ] {
        let config = base_config(dim, total, 33);
        let mut uninterrupted = CovarianceEstimator::with_hyperparameters(config, backend, None);
        let mut front = CovarianceEstimator::with_hyperparameters(config, backend, None);
        let split = 71usize; // mid-block for segment_len 16
        for s in &samples {
            uninterrupted.process_sample(s);
        }
        for s in &samples[..split] {
            front.process_sample(s);
        }
        let mut bytes = Vec::new();
        front.checkpoint(&mut bytes).unwrap();
        let mut resumed = CovarianceEstimator::resume(&mut bytes.as_slice()).unwrap();
        for s in &samples[split..] {
            resumed.process_sample(s);
        }
        assert_eq!(
            resumed.processed_samples(),
            uninterrupted.processed_samples()
        );
        assert_eq!(resumed.update_counts(), uninterrupted.update_counts());
        let (a, b) = (uninterrupted.all_estimates(), resumed.all_estimates());
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{backend:?}: resumed estimates diverged from the uninterrupted run"
        );
        for cut in [0, 5, 6, 20, bytes.len() / 3, bytes.len() - 1] {
            assert!(matches!(
                CovarianceEstimator::resume(&mut &bytes[..cut]),
                Err(CodecError::Truncated)
            ));
        }
        // Time-split merges of time-aware backends are semantically
        // impossible (segments would interleave) — typed, not silent.
        let mut other_bytes = Vec::new();
        uninterrupted.checkpoint(&mut other_bytes).unwrap();
        assert!(matches!(
            resumed.merge_from_checkpoint(&mut other_bytes.as_slice()),
            Err(CodecError::Unsupported(_))
        ));
    }
}

#[test]
fn sharded_shard_count_is_validated_up_front() {
    // Satellite regression: `new`/`vanilla` reject oversized shard counts
    // with a clear message instead of failing later in the slot router.
    let result = std::panic::catch_unwind(|| {
        ShardedAscs::vanilla(SketchGeometry::new(2, 16), 64, 4, 1, MAX_SHARDS + 1)
    });
    let msg = *result
        .expect_err("construction must panic")
        .downcast::<String>()
        .unwrap();
    assert!(msg.contains("at most 256 shards"), "message was: {msg}");
}

/// Count-min rejects negative weights in **release** builds too — this
/// suite runs under `cargo test --release` in CI precisely to prove the
/// check is not a `debug_assert!`.
#[test]
#[should_panic(expected = "non-negative")]
fn count_min_rejects_negative_weights_in_release_builds() {
    let mut cm = CountMinSketch::new(3, 64, 1);
    cm.update(1, 1.0);
    cm.update(2, -0.5);
}

/// Satellite of the durability PR: the single-byte-XOR sweep, extended
/// from in-memory records to the on-disk durability artifacts. Every byte
/// of every WAL segment, checkpoint shard and manifest is flipped in turn;
/// recovery must never panic and never restore silently wrong state —
/// CRC32 framing detects each flip, falls back (previous generation, torn
/// WAL tail) and still reconstructs the full stream bit-identically from
/// the redundant artifacts.
#[test]
fn single_byte_corruption_of_durability_files_is_always_detected() {
    use ascs_testkit::ReplayOracle;
    use std::path::PathBuf;

    let dim = 8u64;
    let total = 24u64;
    let mut cfg = base_config(dim, total, 77);
    cfg.geometry = SketchGeometry::new(2, 32);
    cfg.top_k_capacity = 8;
    let hp = hyper(6, 0.25, 1e-3);
    let samples = dyadic_samples(dim, total, 9);

    let dir = std::env::temp_dir().join(format!("ascs-xor-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions {
        shards: 2,
        ..ServeOptions::default()
    };
    let mut serving = ServingEstimator::launch_durable(
        cfg,
        Some(hp),
        opts,
        DurabilityOptions {
            checkpoint_every: 8,
            wal_segment_records: 8,
            ..DurabilityOptions::new(&dir)
        },
    )
    .expect("durable launch failed");
    for s in &samples {
        serving.ingest_blocking(s).expect("ingest failed");
    }
    serving.simulate_crash();

    let mut oracle = ReplayOracle::new(&cfg, Some(&hp), 2);
    for s in &samples {
        oracle.ingest(s);
    }
    let truth: Vec<u64> = oracle
        .merged_sketch()
        .table()
        .iter()
        .map(|v| v.to_bits())
        .collect();

    // Snapshot the pristine directory: recovery deletes files it deems
    // torn, so every iteration restores the full artifact set.
    let pristine: Vec<(PathBuf, Vec<u8>)> = {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|p| {
                let bytes = std::fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect()
    };
    let names: Vec<String> = pristine
        .iter()
        .map(|(p, _)| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("wal-"))
            && names.iter().any(|n| n.ends_with(".manifest"))
            && names.iter().any(|n| n.contains(".shard")),
        "sweep surface incomplete: {names:?}"
    );

    let restore_all = |skip: Option<&PathBuf>| {
        for (path, bytes) in &pristine {
            if Some(path) != skip {
                std::fs::write(path, bytes).unwrap();
            }
        }
    };

    let mut swept = 0usize;
    for (path, bytes) in &pristine {
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x41;
            std::fs::write(path, &corrupt).unwrap();
            let outcome = RecoveryManager::new(&dir)
                .recover(&cfg, Some(&hp), 2)
                .unwrap_or_else(|e| panic!("{path:?} byte {i}: fatal error {e}"));
            // Redundancy (previous generation + retained WAL) must absorb
            // any single corrupted byte: full epoch, bit-identical state.
            assert_eq!(
                outcome.state.epoch(),
                total,
                "{path:?} byte {i}: lost stream prefix: {}",
                outcome.report
            );
            let recovered: Vec<u64> = outcome
                .state
                .shard_set()
                .merged_sketch()
                .table()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                recovered, truth,
                "{path:?} byte {i}: recovered state diverged"
            );
            restore_all(None);
            swept += 1;
        }
    }
    assert!(swept > 1000, "sweep covered only {swept} bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}
