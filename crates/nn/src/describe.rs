//! Textual rendering of a pruned network (Figure 3 of the paper).
//!
//! The paper draws the pruned Function-2 network with its 17 surviving
//! links, marking positive and negative weights. This module produces the
//! equivalent ASCII description: per hidden node, the surviving input
//! links with their signs and magnitudes, then the hidden→output links —
//! exactly the information a reader needs to trace RX by hand.

use crate::{LinkId, Mlp};

/// A per-network structural summary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NetworkSummary {
    /// Total links (active or not).
    pub total_links: usize,
    /// Surviving links.
    pub active_links: usize,
    /// Live hidden nodes.
    pub live_hidden: Vec<usize>,
    /// Inputs still connected.
    pub used_inputs: Vec<usize>,
}

/// Computes the structural summary of a network.
pub(crate) fn summarize(net: &Mlp) -> NetworkSummary {
    NetworkSummary {
        total_links: net.n_links(),
        active_links: net.n_active(),
        live_hidden: net.live_hidden(),
        used_inputs: net.used_inputs(),
    }
}

/// Renders the pruned network Figure-3 style. `input_name` maps an input
/// index to a display name (pass the encoder's `I1…I87` naming, or column
/// names for generic encoders).
pub fn describe(net: &Mlp, input_name: impl Fn(usize) -> String) -> String {
    let mut out = String::new();
    let summary = summarize(net);
    out.push_str(&format!(
        "network: {} of {} links active, hidden nodes {:?}, {} inputs used\n",
        summary.active_links,
        summary.total_links,
        summary.live_hidden,
        summary.used_inputs.len(),
    ));
    for m in 0..net.n_hidden() {
        let inputs = net.hidden_inputs(m);
        let outputs = net.hidden_outputs(m);
        if inputs.is_empty() && outputs.is_empty() {
            continue;
        }
        let status = if net.hidden_is_dead(m) { " (dead)" } else { "" };
        out.push_str(&format!("hidden node {m}{status}:\n"));
        for l in inputs {
            let w = net.weight(LinkId::InputHidden {
                hidden: m,
                input: l,
            });
            out.push_str(&format!(
                "  {} --({}{:.3})--> H{m}\n",
                input_name(l),
                if w >= 0.0 { "+" } else { "" },
                w
            ));
        }
        for p in outputs {
            let v = net.weight(LinkId::HiddenOutput {
                output: p,
                hidden: m,
            });
            out.push_str(&format!(
                "  H{m} --({}{:.3})--> C{}\n",
                if v >= 0.0 { "+" } else { "" },
                v,
                p + 1
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pruned_net() -> Mlp {
        let mut net = Mlp::random(3, 2, 2, 1);
        // Keep only: in0 -> H0 (+2), H0 -> C1 (-3); everything else pruned.
        for l in 0..3 {
            for m in 0..2 {
                if !(l == 0 && m == 0) {
                    net.prune(LinkId::InputHidden {
                        hidden: m,
                        input: l,
                    });
                }
            }
        }
        for p in 0..2 {
            for m in 0..2 {
                if !(p == 0 && m == 0) {
                    net.prune(LinkId::HiddenOutput {
                        output: p,
                        hidden: m,
                    });
                }
            }
        }
        net.set_weight(
            LinkId::InputHidden {
                hidden: 0,
                input: 0,
            },
            2.0,
        );
        net.set_weight(
            LinkId::HiddenOutput {
                output: 0,
                hidden: 0,
            },
            -3.0,
        );
        net
    }

    #[test]
    fn summary_counts() {
        let net = pruned_net();
        let s = summarize(&net);
        assert_eq!(s.total_links, 2 * (3 + 2));
        assert_eq!(s.active_links, 2);
        assert_eq!(s.live_hidden, vec![0]);
        assert_eq!(s.used_inputs, vec![0]);
    }

    #[test]
    fn describe_shows_signs_and_names() {
        let net = pruned_net();
        let text = describe(&net, |l| format!("I{}", l + 1));
        assert!(text.contains("I1 --(+2.000)--> H0"), "{text}");
        assert!(text.contains("H0 --(-3.000)--> C1"), "{text}");
        assert!(text.contains("2 of 10 links active"));
        // Hidden node 1 is fully disconnected and must not appear.
        assert!(!text.contains("hidden node 1"), "{text}");
    }
}
