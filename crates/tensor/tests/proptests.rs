//! Property-based tests: algebra laws and randomized finite-difference
//! gradient checks over arbitrary shapes. Each case draws its inputs from
//! the seeded generator `gp_tensor::rng::check` hands it.

use gp_tensor::rng::{check, StdRng};
use gp_tensor::{EdgeList, Tape, Tensor};

/// `rows×cols` tensor of U(-2, 2) entries.
fn tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// 1–11 random edges over `n` nodes.
fn edges(rng: &mut StdRng, n: usize) -> Vec<(u32, u32)> {
    (0..rng.gen_range(1..12))
        .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
        .collect()
}

#[test]
fn matmul_distributes_over_add() {
    check(64, |rng| {
        let (n, k, m) = (
            rng.gen_range(1..5),
            rng.gen_range(1..5),
            rng.gen_range(1..5),
        );
        let mut mk = |r: usize, c: usize| {
            Tensor::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect())
        };
        let a = mk(n, k);
        let b = mk(n, k);
        let c = mk(k, m);
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    });
}

#[test]
fn transpose_is_involution() {
    check(64, |rng| {
        let (r, c) = (rng.gen_range(1..5), rng.gen_range(1..5));
        let t = tensor(rng, r, c);
        assert_eq!(t.transpose().transpose(), t);
    });
}

#[test]
fn softmax_rows_are_distributions() {
    check(64, |rng| {
        let (r, c) = (rng.gen_range(1..6), rng.gen_range(2..6));
        let s = tensor(rng, r, c).softmax_rows();
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(s.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    });
}

#[test]
fn gather_rows_preserves_content() {
    check(64, |rng| {
        let (r, c) = (rng.gen_range(2..6), rng.gen_range(1..4));
        let t = tensor(rng, r, c);
        let idx: Vec<usize> = (0..4).map(|_| rng.gen_range(0..t.rows())).collect();
        let g = t.gather_rows(&idx);
        for (out_r, &src_r) in idx.iter().enumerate() {
            assert_eq!(g.row(out_r), t.row(src_r));
        }
    });
}

#[test]
fn linear_layer_gradient_matches_finite_difference() {
    check(64, |rng| {
        let x = tensor(rng, 2, 3);
        let w = tensor(rng, 3, 2);
        let eval = |xv: &Tensor, wv: &Tensor| -> (f32, Tensor) {
            let mut tape = Tape::new();
            let xi = tape.input(xv.clone());
            let wi = tape.input(wv.clone());
            let y = tape.matmul(xi, wi);
            let s = tape.tanh(y);
            let loss = tape.mean_all(s);
            let g = tape.backward(loss).get(wi);
            (tape.value(loss).item(), g)
        };
        let (_, analytic) = eval(&x, &w);
        let eps = 1e-2f32;
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let (lp, _) = eval(&x, &wp);
            let (lm, _) = eval(&x, &wm);
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!(
                (a - numeric).abs() < 5e-2 * (1.0 + numeric.abs()),
                "elem {i}: analytic {a} numeric {numeric}"
            );
        }
    });
}

#[test]
fn spmm_without_weights_equals_unit_weights() {
    check(64, |rng| {
        let x = tensor(rng, 4, 3);
        let edges =
            EdgeList::from_pairs([(0u32, 1u32), (2, 3), (3, 0), (1, 1), (2, 0)]).into_shared();
        let mut t1 = Tape::new();
        let xi = t1.input(x.clone());
        let y1 = t1.spmm(edges.clone(), xi, None, 4);
        let mut t2 = Tape::new();
        let xi2 = t2.input(x.clone());
        let ones = t2.input(Tensor::full(edges.len(), 1, 1.0));
        let y2 = t2.spmm(edges.clone(), xi2, Some(ones), 4);
        assert_eq!(t1.value(y1).clone(), t2.value(y2).clone());
    });
}

#[test]
fn l2_normalized_rows_are_unit_or_zero() {
    check(64, |rng| {
        let (r, c) = (rng.gen_range(1..6), rng.gen_range(1..6));
        let n = tensor(rng, r, c).l2_normalize_rows(1e-8);
        for r in 0..n.rows() {
            let norm: f32 = n.row(r).iter().map(|&x| x * x).sum::<f32>().sqrt();
            assert!(norm < 1e-6 || (norm - 1.0).abs() < 1e-4);
        }
    });
}

#[test]
fn spmm_edge_weight_gradients_match_finite_difference() {
    check(32, |rng| {
        let edges = EdgeList::from_pairs(edges(rng, 4)).into_shared();
        let x = tensor(rng, 4, 2);
        let e = edges.len();
        let w = Tensor::from_vec(e, 1, (0..e).map(|_| rng.gen_range(-1.0..1.0)).collect());

        let eval = |wv: &Tensor| -> (f32, Tensor) {
            let mut tape = Tape::new();
            let xi = tape.input(x.clone());
            let wi = tape.input(wv.clone());
            let y = tape.spmm(edges.clone(), xi, Some(wi), 4);
            let s = tape.tanh(y);
            let loss = tape.mean_all(s);
            let g = tape.backward(loss).get(wi);
            (tape.value(loss).item(), g)
        };
        let (_, analytic) = eval(&w);
        let eps = 1e-2f32;
        for i in 0..e {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let numeric = (eval(&wp).0 - eval(&wm).0) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!(
                (a - numeric).abs() < 5e-2 * (1.0 + numeric.abs()),
                "edge {i}: analytic {a} numeric {numeric}"
            );
        }
    });
}

#[test]
fn edge_softmax_gradients_match_finite_difference() {
    check(32, |rng| {
        let edges = EdgeList::from_pairs(edges(rng, 3)).into_shared();
        let scores = tensor(rng, edges.len(), 1);

        let eval = |sv: &Tensor| -> (f32, Tensor) {
            let mut tape = Tape::new();
            let si = tape.input(sv.clone());
            let p = tape.edge_softmax(edges.clone(), si);
            let sq = tape.mul(p, p);
            let loss = tape.sum_all(sq);
            let g = tape.backward(loss).get(si);
            (tape.value(loss).item(), g)
        };
        let (_, analytic) = eval(&scores);
        let eps = 1e-2f32;
        for i in 0..edges.len() {
            let mut sp = scores.clone();
            sp.as_mut_slice()[i] += eps;
            let mut sm = scores.clone();
            sm.as_mut_slice()[i] -= eps;
            let numeric = (eval(&sp).0 - eval(&sm).0) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!(
                (a - numeric).abs() < 5e-2 * (1.0 + numeric.abs()),
                "edge {i}: analytic {a} numeric {numeric}"
            );
        }
    });
}

#[test]
fn edge_softmax_is_shift_invariant_per_group() {
    check(32, |rng| {
        let edges = EdgeList::from_pairs(edges(rng, 3)).into_shared();
        let scores = tensor(rng, edges.len(), 1);
        let shift = rng.gen_range(-5.0..5.0);
        let run = |sv: &Tensor| {
            let mut tape = Tape::new();
            let si = tape.input(sv.clone());
            let p = tape.edge_softmax(edges.clone(), si);
            tape.value(p).clone()
        };
        let base = run(&scores);
        let shifted = run(&scores.map(|x| x + shift));
        for (a, b) in base.as_slice().iter().zip(shifted.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    });
}

// ---------------------------------------------------------------------------
// One float sequence: the public kernels (on AVX2 hosts, their AVX2
// compilation) give the bits of the plain loops written out below on
// every shape — rectangular, tile-sized, and degenerate (0-row, 1-col,
// non-multiples of the 8/16/32-lane tiles) — and stay bit-identical to
// themselves across worker counts. Each loop is the kernel's pinned
// sequence: one rounded multiply and one rounded add per step, in
// ascending order, with no zero skip in the matmuls.

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|x| x.to_bits()).collect()
}

/// `a (n×k) · b (k×m)`: each element folds `kk` ascending from `+0.0`.
fn loop_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut out = Tensor::zeros(n, m);
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.row(i)[kk] * b.row(kk)[j];
            }
            out.row_mut(i)[j] = acc;
        }
    }
    out
}

#[test]
fn fast_matmul_is_tolerance_equal_to_reference() {
    // The tolerance is zero. Half the cases put ReLU zeros of both
    // signs in `a`, which the kernels fold in like any other entry.
    check(64, |rng| {
        let (n, k, m) = (
            rng.gen_range(0..34),
            rng.gen_range(0..34),
            rng.gen_range(0..34),
        );
        let mut a = tensor(rng, n, k);
        if rng.gen_range(0..2usize) == 0 {
            a = a.map(|x| match x {
                x if x < -1.0 => 0.0,
                x if x < 0.0 => -0.0,
                x => x,
            });
        }
        let b = tensor(rng, k, m);
        assert_eq!(
            bits(a.matmul(&b).as_slice()),
            bits(loop_matmul(&a, &b).as_slice()),
            "{n}x{k}x{m}"
        );
    });
}

#[test]
fn fast_matmul_tb_and_ta_are_tolerance_equal_to_reference() {
    check(64, |rng| {
        let (n, k, m) = (
            rng.gen_range(1..26),
            rng.gen_range(1..70),
            rng.gen_range(1..26),
        );
        let a = tensor(rng, n, k);
        let bt = tensor(rng, m, k);
        let at = tensor(rng, k, n);
        let b = tensor(rng, k, m);
        let tb = loop_matmul(&a, &bt.transpose());
        let ta = loop_matmul(&at.transpose(), &b);
        assert_eq!(bits(a.matmul_tb(&bt).as_slice()), bits(tb.as_slice()), "tb");
        assert_eq!(bits(at.matmul_ta(&b).as_slice()), bits(ta.as_slice()), "ta");
    });
}

#[test]
fn fast_cosine_and_norm_are_tolerance_equal_to_reference() {
    check(64, |rng| {
        let len = rng.gen_range(1..70);
        let xs: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let ys: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let (mut dot, mut nx, mut ny) = (0.0f32, 0.0f32, 0.0f32);
        for (&x, &y) in xs.iter().zip(&ys) {
            dot += x * y;
            nx += x * x;
            ny += y * y;
        }
        let cos = dot / (nx.sqrt() * ny.sqrt()).max(1e-12);
        let got = gp_tensor::cosine_slices(&xs, &ys);
        assert_eq!(got.to_bits(), cos.to_bits(), "{got} vs {cos}");
        let norm = gp_tensor::l2_norm(&xs);
        assert_eq!(
            norm.to_bits(),
            nx.sqrt().to_bits(),
            "{norm} vs {}",
            nx.sqrt()
        );
    });
}

#[test]
fn fast_spmm_and_edge_softmax_are_tolerance_equal_to_reference() {
    check(64, |rng| {
        let edges = EdgeList::from_pairs(edges(rng, 4)).into_shared();
        let e = edges.len();
        let n = edges.min_num_nodes();
        let x = tensor(rng, n, 3);
        let w = tensor(rng, e, 1);
        let mut tape = Tape::new();
        let xi = tape.input(x.clone());
        let wi = tape.input(w.clone());
        let agg = tape.spmm(edges.clone(), xi, Some(wi), n);
        let soft = tape.edge_softmax(edges.clone(), wi);

        // Edge order; zero weights skipped.
        let mut want_agg = Tensor::zeros(n, 3);
        for (i, (s, t)) in edges.iter().enumerate() {
            let we = w.as_slice()[i];
            if we != 0.0 {
                for (o, &v) in want_agg.row_mut(t).iter_mut().zip(x.row(s)) {
                    *o += we * v;
                }
            }
        }
        // Per-destination max, then edge-order exp, sum and divide.
        let mut max = vec![f32::NEG_INFINITY; n];
        let mut sum = vec![0.0f32; n];
        for (i, (_, t)) in edges.iter().enumerate() {
            max[t] = max[t].max(w.as_slice()[i]);
        }
        let exp: Vec<f32> = edges
            .iter()
            .enumerate()
            .map(|(i, (_, t))| {
                let v = (w.as_slice()[i] - max[t]).exp();
                sum[t] += v;
                v
            })
            .collect();
        let want_soft: Vec<f32> = edges
            .iter()
            .zip(&exp)
            .map(|((_, t), v)| v / sum[t].max(1e-12))
            .collect();
        assert_eq!(
            bits(tape.value(agg).as_slice()),
            bits(want_agg.as_slice()),
            "spmm"
        );
        assert_eq!(
            bits(tape.value(soft).as_slice()),
            bits(&want_soft),
            "edge_softmax"
        );
    });
}
