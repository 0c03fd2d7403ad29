//! Step 1 of RX: activation-value discretization via clustering.

use nr_encode::EncodedDataset;
use nr_nn::{Matrix, Mlp};

/// Each failed ε is multiplied by this (Figure 4 step 1(e): "decrease ε
/// and repeat").
const EPSILON_DECAY: f64 = 0.75;
/// The search stops before ε falls below this.
const MIN_EPSILON: f64 = 1e-3;

/// The discrete activation values of one hidden node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClusterModel {
    /// Cluster centers (mean activation of each cluster), in creation order.
    pub centers: Vec<f64>,
}

impl ClusterModel {
    /// Number of discrete activation values (`D` in Figure 4).
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// Index of the nearest cluster center.
    pub fn assign(&self, activation: f64) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (j, &c) in self.centers.iter().enumerate() {
            let d = (activation - c).abs();
            if d < best_d {
                best_d = d;
                best = j;
            }
        }
        best
    }

    /// The center value of cluster `j` (the `δ_d` substituted for raw
    /// activations when checking accuracy).
    pub fn center(&self, j: usize) -> f64 {
        self.centers[j]
    }
}

/// The online clustering of Figure 4, step 1 (a)–(c): scan the activation
/// values; join the nearest existing cluster when within `epsilon`,
/// otherwise open a new one; finally replace each cluster value by the mean
/// of its members.
pub(crate) fn cluster_activations(values: &[f64], epsilon: f64) -> ClusterModel {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let mut heads: Vec<f64> = Vec::new(); // H(j), fixed during the scan
    let mut counts: Vec<usize> = Vec::new();
    let mut sums: Vec<f64> = Vec::new();
    for &delta in values {
        let nearest = heads
            .iter()
            .enumerate()
            .map(|(j, &h)| (j, (delta - h).abs()))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        match nearest {
            Some((j, d)) if d <= epsilon => {
                counts[j] += 1;
                sums[j] += delta;
            }
            _ => {
                heads.push(delta);
                counts.push(1);
                sums.push(delta);
            }
        }
    }
    let centers = sums
        .iter()
        .zip(&counts)
        .map(|(s, &c)| s / c as f64)
        .collect();
    ClusterModel { centers }
}

/// Discretization of all live hidden nodes of a network.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HiddenDiscretization {
    /// The live hidden node indices, ascending (dead nodes have no model).
    pub nodes: Vec<usize>,
    /// One cluster model per entry of `nodes`.
    pub models: Vec<ClusterModel>,
    /// The ε the search settled on.
    pub epsilon: f64,
    /// Accuracy of the network with discretized activations.
    pub accuracy: f64,
}

/// Runs step 1 end to end: cluster each live hidden node's activations at
/// `epsilon`, check the accuracy of the discretized network (step 1(d)),
/// and decay ε (step 1(e)) until the floor is met. Returns the first ε
/// that meets `accuracy_floor`; when none down to [`MIN_EPSILON`] does,
/// the first ε with the best accuracy.
pub(crate) fn discretize_hidden(
    net: &Mlp,
    data: &EncodedDataset,
    mut epsilon: f64,
    accuracy_floor: f64,
) -> HiddenDiscretization {
    let nodes = net.live_hidden();
    // One batched forward pass gives every raw activation; each ε is
    // scored from it. Gather the live-node columns: live nodes × rows.
    let (hidden_batch, _) = net.forward_batch(data);
    let activations: Vec<Vec<f64>> = nodes
        .iter()
        .map(|&m| (0..data.rows()).map(|i| hidden_batch.row(i)[m]).collect())
        .collect();

    let mut best: Option<HiddenDiscretization> = None;
    loop {
        let models: Vec<ClusterModel> = activations
            .iter()
            .map(|vals| cluster_activations(vals, epsilon))
            .collect();
        let accuracy = discretized_accuracy(net, data, &hidden_batch, &nodes, &models);
        let disc = HiddenDiscretization {
            nodes: nodes.clone(),
            models,
            epsilon,
            accuracy,
        };
        if accuracy >= accuracy_floor {
            return disc;
        }
        if best.as_ref().is_none_or(|b| accuracy > b.accuracy) {
            best = Some(disc);
        }
        epsilon *= EPSILON_DECAY;
        if epsilon < MIN_EPSILON {
            return best.expect("at least one ε was scored");
        }
    }
}

/// Accuracy with every live hidden activation of `hidden_batch` (the raw
/// rows × hidden activations) replaced by its cluster center (Figure 4,
/// step 1(d)).
fn discretized_accuracy(
    net: &Mlp,
    data: &EncodedDataset,
    hidden_batch: &Matrix,
    nodes: &[usize],
    models: &[ClusterModel],
) -> f64 {
    if data.rows() == 0 {
        return 0.0;
    }
    let mut hidden = vec![0.0; net.n_hidden()];
    let mut out = vec![0.0; net.n_outputs()];
    let mut correct = 0usize;
    for i in 0..data.rows() {
        hidden.copy_from_slice(hidden_batch.row(i));
        // Replace live activations by their cluster centers; dead nodes have
        // no output links, so their value is irrelevant.
        for (k, &m) in nodes.iter().enumerate() {
            let model = &models[k];
            hidden[m] = model.center(model.assign(hidden[m]));
        }
        net.output_from_hidden(&hidden, &mut out);
        if nr_nn::argmax(&out) == data.target(i) {
            correct += 1;
        }
    }
    correct as f64 / data.rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_nn::{LinkId, Trainer};

    #[test]
    fn clustering_three_groups() {
        let values = [-0.98, -0.99, -1.0, 0.01, 0.0, -0.02, 0.97, 1.0, 0.99];
        let model = cluster_activations(&values, 0.5);
        assert_eq!(model.len(), 3);
        let mut centers = model.centers.clone();
        centers.sort_by(f64::total_cmp);
        assert!((centers[0] + 0.99).abs() < 0.02);
        assert!(centers[1].abs() < 0.02);
        assert!((centers[2] - 0.9866).abs() < 0.02);
    }

    #[test]
    fn tight_epsilon_gives_singletons() {
        let values = [0.0, 0.5, 1.0];
        let model = cluster_activations(&values, 0.1);
        assert_eq!(model.len(), 3);
        assert_eq!(model.centers, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn huge_epsilon_gives_one_cluster() {
        let values = [-1.0, 0.0, 1.0];
        let model = cluster_activations(&values, 10.0);
        assert_eq!(model.len(), 1);
        assert!((model.centers[0] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn assign_picks_nearest() {
        let model = ClusterModel {
            centers: vec![-1.0, 0.0, 1.0],
        };
        assert_eq!(model.assign(-0.8), 0);
        assert_eq!(model.assign(0.2), 1);
        assert_eq!(model.assign(0.9), 2);
        assert_eq!(model.len(), 3);
    }

    #[test]
    fn paper_scan_semantics_heads_fixed() {
        // H stays at the first member during the scan: 0.0 opens a cluster,
        // 0.55 joins it (|0.55-0| <= 0.6), then 1.1 joins TOO because
        // |1.1 - H(1)=0| > 0.6 -> opens a new cluster even though the
        // running mean would be 0.275.
        let model = cluster_activations(&[0.0, 0.55, 1.1], 0.6);
        assert_eq!(model.len(), 2);
        assert!((model.centers[0] - 0.275).abs() < 1e-12);
        assert_eq!(model.centers[1], 1.1);
    }

    /// A trained 3-input separable-problem network for discretization tests.
    fn trained_net() -> (Mlp, EncodedDataset) {
        let mut data = Vec::new();
        let mut targets = Vec::new();
        for i in 0..40 {
            let b0 = (i % 2) as f64;
            data.extend_from_slice(&[b0, ((i / 2) % 2) as f64, 1.0]);
            targets.push(if b0 == 1.0 { 0 } else { 1 });
        }
        let data = EncodedDataset::from_parts(data, 3, targets, 2);
        let mut net = Mlp::random(3, 2, 2, 3);
        Trainer::default().train(&mut net, &data);
        (net, data)
    }

    #[test]
    fn discretize_meets_floor() {
        let (net, data) = trained_net();
        let disc = discretize_hidden(&net, &data, 0.6, 0.95);
        assert!(disc.accuracy >= 0.95);
        assert_eq!(disc.nodes, net.live_hidden());
        assert_eq!(disc.models.len(), disc.nodes.len());
        assert!(disc.models.iter().all(|m| m.len() >= 1));
    }

    #[test]
    fn epsilon_decays_when_needed() {
        let (net, data) = trained_net();
        // A silly-large starting epsilon lumps everything into one cluster;
        // the loop must shrink it until accuracy recovers.
        let disc = discretize_hidden(&net, &data, 4.0, 0.95);
        assert!(disc.epsilon < 4.0);
        assert!(disc.accuracy >= 0.95);
    }

    /// No ε reaches a floor above 1, so the search keeps the first ε with
    /// the best accuracy. The bits were captured from the earlier two-pass
    /// search (fail at the floor, then rerun the decay aiming just under
    /// the best accuracy seen).
    #[test]
    fn unreachable_floor_keeps_the_first_best_epsilon() {
        let (net, data) = trained_net();
        let disc = discretize_hidden(&net, &data, 0.6, 1.1);
        assert_eq!(disc.epsilon.to_bits(), 0x3fe3_3333_3333_3333);
        assert_eq!(disc.accuracy.to_bits(), 0x3ff0_0000_0000_0000);
        assert_eq!(disc.nodes, vec![0, 1]);
        let centers: Vec<Vec<u64>> = disc
            .models
            .iter()
            .map(|m| m.centers.iter().map(|c| c.to_bits()).collect())
            .collect();
        assert_eq!(
            centers,
            vec![
                vec![0xbeb1_0603_f0fc_4716],
                vec![0xbfeb_d97e_da07_cda0, 0x3fee_a2ef_097f_d5de],
            ]
        );
    }

    #[test]
    fn dead_nodes_excluded() {
        let (mut net, data) = trained_net();
        // Kill hidden node 1 entirely.
        net.prune(LinkId::HiddenOutput {
            output: 0,
            hidden: 1,
        });
        net.prune(LinkId::HiddenOutput {
            output: 1,
            hidden: 1,
        });
        net.remove_dead_hidden();
        let acc = net.accuracy(&data);
        if acc >= 0.9 {
            let disc = discretize_hidden(&net, &data, 0.6, 0.9);
            assert_eq!(disc.nodes, vec![0]);
        }
    }
}
