//! Integration: the three `G_net` builders (naive scan, relatives cascade,
//! Section 2.4 covertree procedure) produce **identical** graphs on the same
//! hierarchy — including on non-Euclidean metrics (the tree metric of
//! Section 3 and the integer `L_∞` of Section 4), which exercises the full
//! generic path.

use proximity_graphs::core::GNet;
use proximity_graphs::hardness::{BlockInstance, TreeInstance};
use proximity_graphs::metric::{Chebyshev, Dataset, Euclidean, Manhattan};
use proximity_graphs::nets::NetHierarchy;
use proximity_graphs::workloads;

fn assert_all_builders_agree<
    P: Clone + Sync,
    M: proximity_graphs::metric::Metric<P> + Clone + Sync,
>(
    data: &Dataset<P, M>,
    eps: f64,
    label: &str,
) {
    let h = NetHierarchy::build(data);
    let fast = GNet::build_fast_on(data, eps, h.clone());
    let naive = GNet::build_naive_on(data, eps, h.clone());
    let ct = GNet::build_covertree_on(data, eps, h);
    assert_eq!(fast.graph, naive.graph, "{label}: fast != naive");
    assert_eq!(ct.graph, naive.graph, "{label}: covertree != naive");
}

#[test]
fn builders_agree_on_euclidean_workloads() {
    for (name, points) in workloads::standard_suite(100, 3) {
        let data = Dataset::new(points, Euclidean);
        assert_all_builders_agree(&data, 1.0, name);
    }
}

#[test]
fn fast_and_naive_agree_across_several_row_blocks() {
    // The fast builder works in blocks of 1024 points; 2500 points make two
    // full blocks and a short one, so the candidate passes and the CSR fill
    // really run as several pool items.
    let data = Dataset::new(workloads::uniform_cube(2500, 2, 200.0, 7), Euclidean);
    let h = NetHierarchy::build(&data);
    let naive = GNet::build_naive_on(&data, 1.0, h.clone());
    for threads in [1, 2, 7] {
        let fast = rayon::with_threads(threads, || GNet::build_fast_on(&data, 1.0, h.clone()));
        assert_eq!(fast.graph, naive.graph, "{threads} threads");
    }
}

#[test]
fn builders_agree_for_small_epsilon() {
    let points = workloads::uniform_cube(80, 2, 60.0, 4);
    let data = Dataset::new(points, Euclidean);
    assert_all_builders_agree(&data, 0.25, "uniform eps=0.25");
}

#[test]
fn builders_agree_on_the_tree_metric() {
    let inst = TreeInstance::new(8, 128);
    let data = inst.dataset();
    assert_all_builders_agree(&data, 1.0, "tree metric");
}

#[test]
fn builders_agree_on_the_block_instance() {
    let inst = BlockInstance::new(3, 2, 3);
    let data = inst.data_dataset();
    assert_all_builders_agree(&data, inst.epsilon(), "block L_inf");
}

#[test]
fn builders_agree_under_other_lp_norms() {
    let points = workloads::uniform_cube(70, 3, 40.0, 5);
    let data = Dataset::new(points.clone(), Chebyshev);
    assert_all_builders_agree(&data, 1.0, "L_inf");
    let data = Dataset::new(points, Manhattan);
    assert_all_builders_agree(&data, 1.0, "L_1");
}

#[test]
fn hierarchy_reuse_is_equivalent_to_fresh_build() {
    let points = workloads::uniform_cube(90, 2, 50.0, 6);
    let data = Dataset::new(points, Euclidean);
    let fresh = GNet::build_fast(&data, 1.0);
    let h = NetHierarchy::build(&data);
    let reused = GNet::build_fast_on(&data, 1.0, h);
    assert_eq!(fresh.graph, reused.graph);
}
