//! Step 1 of RX: activation-value discretization via clustering.

use nr_encode::EncodedDataset;
use nr_nn::Mlp;
use serde::{Deserialize, Serialize};

use crate::RxError;

/// The discrete activation values of one hidden node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterModel {
    /// Cluster centers (mean activation of each cluster), in creation order.
    pub centers: Vec<f64>,
}

impl ClusterModel {
    /// Number of discrete activation values (`D` in Figure 4).
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// True when the model has no clusters (empty training data).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
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
pub fn cluster_activations(values: &[f64], epsilon: f64) -> ClusterModel {
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HiddenDiscretization {
    /// The live hidden node indices, ascending (dead nodes have no model).
    pub nodes: Vec<usize>,
    /// One cluster model per entry of `nodes`.
    pub models: Vec<ClusterModel>,
    /// The ε that met the accuracy floor.
    pub epsilon: f64,
    /// Accuracy of the network with discretized activations.
    pub accuracy: f64,
}

impl HiddenDiscretization {
    /// The cluster model of hidden node `m`, if it is live.
    pub fn model_of(&self, m: usize) -> Option<&ClusterModel> {
        self.nodes
            .iter()
            .position(|&n| n == m)
            .map(|i| &self.models[i])
    }

    /// Total number of activation combinations (`Π D_m`).
    pub fn combination_count(&self) -> usize {
        self.models.iter().map(ClusterModel::len).product()
    }
}

/// Runs step 1 end to end: cluster each live hidden node's activations at
/// `epsilon`, check the accuracy of the discretized network (step 1(d)),
/// and decay ε (step 1(e)) until the floor is met.
pub fn discretize_hidden(
    net: &Mlp,
    data: &EncodedDataset,
    mut epsilon: f64,
    decay: f64,
    min_epsilon: f64,
    accuracy_floor: f64,
) -> Result<HiddenDiscretization, RxError> {
    assert!(
        (0.0..1.0).contains(&decay) && decay > 0.0,
        "decay must be in (0,1)"
    );
    let nodes = net.live_hidden();
    // Precompute raw activations in one batched forward pass, then gather
    // the live-node columns: rows × live nodes.
    let (hidden_batch, _) = net.forward_batch(data);
    let mut activations: Vec<Vec<f64>> = vec![Vec::with_capacity(data.rows()); nodes.len()];
    for i in 0..data.rows() {
        let hidden = hidden_batch.row(i);
        for (k, &m) in nodes.iter().enumerate() {
            activations[k].push(hidden[m]);
        }
    }

    let mut best_accuracy = f64::NEG_INFINITY;
    loop {
        let models: Vec<ClusterModel> = activations
            .iter()
            .map(|vals| cluster_activations(vals, epsilon))
            .collect();
        let accuracy = discretized_accuracy(net, data, &nodes, &models);
        if accuracy >= accuracy_floor {
            return Ok(HiddenDiscretization {
                nodes,
                models,
                epsilon,
                accuracy,
            });
        }
        best_accuracy = best_accuracy.max(accuracy);
        let next = epsilon * decay;
        if next < min_epsilon {
            return Err(RxError::ClusteringFailed {
                best_accuracy,
                floor: accuracy_floor,
            });
        }
        epsilon = next;
    }
}

/// Accuracy with every live hidden activation replaced by its cluster center
/// (Figure 4, step 1(d)).
pub fn discretized_accuracy(
    net: &Mlp,
    data: &EncodedDataset,
    nodes: &[usize],
    models: &[ClusterModel],
) -> f64 {
    if data.rows() == 0 {
        return 0.0;
    }
    // Raw activations come from one batched forward pass; only the
    // (cheap) discretized output layer is recomputed per row.
    let (mut hidden_batch, _) = net.forward_batch(data);
    let mut out = vec![0.0; net.n_outputs()];
    let mut correct = 0usize;
    for i in 0..data.rows() {
        let hidden = hidden_batch.row_mut(i);
        // Replace live activations by their cluster centers; dead nodes have
        // no output links, so their value is irrelevant.
        for (k, &m) in nodes.iter().enumerate() {
            let model = &models[k];
            hidden[m] = model.center(model.assign(hidden[m]));
        }
        net.output_from_hidden(hidden, &mut out);
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
        let disc = discretize_hidden(&net, &data, 0.6, 0.75, 1e-3, 0.95).unwrap();
        assert!(disc.accuracy >= 0.95);
        assert_eq!(disc.nodes, net.live_hidden());
        assert_eq!(disc.models.len(), disc.nodes.len());
        assert!(disc.combination_count() >= 1);
        for m in &disc.nodes {
            assert!(disc.model_of(*m).is_some());
        }
        assert_eq!(disc.model_of(99), None);
    }

    #[test]
    fn epsilon_decays_when_needed() {
        let (net, data) = trained_net();
        // A silly-large starting epsilon lumps everything into one cluster;
        // the loop must shrink it until accuracy recovers.
        let disc = discretize_hidden(&net, &data, 4.0, 0.5, 1e-6, 0.95).unwrap();
        assert!(disc.epsilon < 4.0);
        assert!(disc.accuracy >= 0.95);
    }

    #[test]
    fn impossible_floor_errors() {
        let (net, data) = trained_net();
        let err = discretize_hidden(&net, &data, 0.6, 0.75, 0.5, 1.1).unwrap_err();
        assert!(matches!(err, RxError::ClusteringFailed { .. }));
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
            let disc = discretize_hidden(&net, &data, 0.6, 0.75, 1e-3, 0.9).unwrap();
            assert_eq!(disc.nodes, vec![0]);
        }
    }
}
