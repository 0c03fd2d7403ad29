//! Hidden-node splitting via subnetworks (§3.2).
//!
//! When a pruned hidden node still has too many input links to enumerate
//! its feasible input patterns, the paper trains a *subnetwork*: a fresh
//! three-layer network whose inputs are the node's inputs and whose output
//! nodes are the node's discrete activation values (one-hot targets from
//! the clustering of step 1). The subnetwork is trained and pruned like the
//! original, and rule extraction recurses on it, yielding rules from input
//! bits to the parent node's discretized activation — exactly what step 3
//! needs. The paper applies this recursively; [`MAX_DEPTH`] bounds the
//! recursion.

use nr_encode::EncodedDataset;
use nr_nn::{Mlp, Trainer};
use nr_prune::{prune, PruneConfig};

use crate::cluster::ClusterModel;
use crate::extract::{ClassDnf, Rx};
use crate::{RxError, RxTrace};

/// Subnetworks nest at most this deep (1 = one level of subnetworks).
pub(crate) const MAX_DEPTH: usize = 2;
/// Hidden-layer width of a subnetwork.
const HIDDEN: usize = 3;
/// Weight-initialization seed, mixed with the split node's index.
const SEED: u64 = 0x5EED_CAFE;
/// Accuracy floor for pruning a subnetwork (on the cluster-id task).
const PRUNE_FLOOR: f64 = 0.9;

/// Builds the subnetwork's training set for `node`: inputs are the node's
/// connected bits (+ a fresh bias column), targets are the cluster ids of
/// the node's activation on each training row.
fn subnet_dataset(
    parent: &Mlp,
    node: usize,
    model: &ClusterModel,
    data: &EncodedDataset,
) -> (EncodedDataset, Vec<usize>) {
    let local_bits = parent.hidden_inputs(node);
    let cols = local_bits.len() + 1;
    let mut matrix = Vec::with_capacity(data.rows() * cols);
    let mut targets = Vec::with_capacity(data.rows());
    for i in 0..data.rows() {
        let row = data.row_bits(i);
        let mut z = 0.0;
        for &l in &local_bits {
            let x = if row.binary_search(&(l as u32)).is_ok() {
                1.0
            } else {
                0.0
            };
            matrix.push(x);
            z += parent.w()[(node, l)] * x;
        }
        matrix.push(1.0); // bias
        targets.push(model.assign(z.tanh()));
    }
    let n_classes = model.len();
    (
        EncodedDataset::from_parts(matrix, cols, targets, n_classes),
        local_bits,
    )
}

impl Rx<'_> {
    /// Trains and prunes a subnetwork for `node` and recursively extracts
    /// the literal DNF of each used cluster value, recording the
    /// subnetwork's own subnetwork and observed-pattern use in `trace`.
    pub(crate) fn split(
        &self,
        node: usize,
        model: &ClusterModel,
        used: &[usize],
        trace: &mut RxTrace,
    ) -> Result<ClassDnf, RxError> {
        let (sub_data, local_bits) = subnet_dataset(self.net, node, model, self.data);

        // The subnetwork reads the same global bits as the parent node, plus
        // the constant-one bias which is identified with the encoder's bias
        // bit (also constant one) so feasibility reasoning stays sound.
        let mut sub_bit_map: Vec<usize> = local_bits.iter().map(|&l| self.bit_map[l]).collect();
        sub_bit_map.push(self.encoder.bias_bit());

        let mut subnet = Mlp::random(
            sub_data.cols(),
            HIDDEN,
            model.len().max(2),
            SEED ^ node as u64,
        );
        let trained = Trainer::default().train(&mut subnet, &sub_data);
        let prune_config = PruneConfig {
            accuracy_floor: PRUNE_FLOOR.min((trained.accuracy - 0.01).max(0.0)),
            ..PruneConfig::default()
        };
        let pruned = prune(&mut subnet, &sub_data, &prune_config);

        // Recurse: the subnetwork's "classes" are the parent's cluster ids.
        // The recursion must preserve *this subnetwork's* accuracy on the
        // cluster-id task, which may legitimately sit below the top-level
        // floor — aim just under whatever the subnetwork achieved.
        Rx {
            net: &subnet,
            bit_map: &sub_bit_map,
            data: &sub_data,
            accuracy_floor: self
                .accuracy_floor
                .min((pruned.final_accuracy - 0.01).max(0.0)),
            depth: self.depth + 1,
            ..*self
        }
        .literal_dnf(used, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_nn::LinkId;

    /// Parent net whose hidden node 0 computes tanh(2·(x0 − x1)) over two
    /// bits (+bias), giving activations near {−0.96, 0, 0.96}.
    fn parent_with_known_node() -> Mlp {
        let mut net = Mlp::random(3, 1, 2, 0);
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 0,
            },
            2.0,
        );
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 1,
            },
            -2.0,
        );
        net.prune(LinkId::InputHidden {
            hidden: 0,
            input: 2,
        });
        net.set_weight(
            LinkId::HiddenOutput {
                output: 0,
                hidden: 0,
            },
            3.0,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 1,
                hidden: 0,
            },
            -3.0,
        );
        net
    }

    fn all_patterns_data() -> EncodedDataset {
        // Inputs cover the four (x0,x1) combinations, bias appended.
        let mut m = Vec::new();
        let mut t = Vec::new();
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            m.extend_from_slice(&[a, b, 1.0]);
            t.push(usize::from(a == b)); // arbitrary labels; unused here
        }
        EncodedDataset::from_parts(m, 3, t, 2)
    }

    #[test]
    fn subnet_dataset_targets_are_cluster_ids() {
        let net = parent_with_known_node();
        let data = all_patterns_data();
        let model = ClusterModel {
            centers: vec![-0.96, 0.0, 0.96],
        };
        let (sub, local_bits) = subnet_dataset(&net, 0, &model, &data);
        assert_eq!(local_bits, vec![0, 1]);
        assert_eq!(sub.cols(), 3); // two inputs + bias
        assert_eq!(sub.rows(), 4);
        assert_eq!(sub.n_classes(), 3);
        // (0,0) -> tanh(0)=0 -> cluster 1; (0,1) -> tanh(-2) -> cluster 0;
        // (1,0) -> tanh(2) -> cluster 2; (1,1) -> 0 -> cluster 1.
        assert_eq!(sub.target(0), 1);
        assert_eq!(sub.target(1), 0);
        assert_eq!(sub.target(2), 2);
        assert_eq!(sub.target(3), 1);
        // Bias column is all ones.
        for i in 0..4 {
            assert_eq!(sub.row_bits(i).last(), Some(&2));
        }
    }
}
