//! Cluster-aware externals: the customised message-passing interface of the
//! grid application (Figure 2), plus node identity and failure observation.

use crate::cluster::{Cluster, RecvOutcome};
use mojave_core::{DefaultExternals, ExtCall, Externals, RuntimeError, MSG_OK, MSG_ROLL};
use mojave_heap::{Heap, PtrIdx, Word};

/// Externals for a process running on a cluster node.
///
/// `msg_send(dest, tag, data)` and `msg_recv(src, tag, buf)` move `float[]`
/// payloads through the cluster mailboxes; `msg_recv` returns [`MSG_ROLL`]
/// when the peer has failed or nothing arrives in time — the signal the grid
/// main loop reacts to by rolling back its speculation.  All other externals
/// delegate to [`DefaultExternals`].
///
/// Failure injection: once the cluster marks this node failed, the *next*
/// external call of any kind raises an error, which terminates the process —
/// the moral equivalent of the machine going down.
///
/// In the cluster's deterministic simulation mode the RNG seed is derived
/// from the cluster seed, every external call advances the node's seeded
/// virtual clock, and `clock_us` reads that virtual clock instead of the
/// host's — so a run's observable behaviour is a pure function of the seed.
#[derive(Debug)]
pub struct ClusterExternals {
    cluster: Cluster,
    node: usize,
    inner: DefaultExternals,
    recorder: mojave_obs::Recorder,
}

impl ClusterExternals {
    /// Externals for `node` on `cluster`.
    pub fn new(cluster: Cluster, node: usize) -> Self {
        let seed = cluster.node_seed(node);
        ClusterExternals {
            cluster,
            node,
            inner: DefaultExternals::new(seed),
            recorder: mojave_obs::Recorder::disabled(),
        }
    }

    /// Attach a flight recorder (builder style): message send/receive and
    /// failure events flow into it.
    pub fn with_recorder(mut self, recorder: mojave_obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    fn killed(&self) -> RuntimeError {
        RuntimeError::ExternError {
            name: "node".into(),
            message: format!("node {} has failed", self.node),
        }
    }
}

/// Argument `i` of an external call as an int.
pub(crate) fn arg_int(call: &ExtCall<'_>, i: usize) -> Result<i64, RuntimeError> {
    call.args
        .get(i)
        .and_then(|w| w.as_int())
        .ok_or_else(|| RuntimeError::ExternError {
            name: call.name.to_owned(),
            message: format!("argument {i} must be an int"),
        })
}

/// Argument `i` of an external call as an array pointer.
pub(crate) fn arg_array(call: &ExtCall<'_>, i: usize) -> Result<PtrIdx, RuntimeError> {
    call.args
        .get(i)
        .and_then(|w| w.as_ptr())
        .ok_or_else(|| RuntimeError::ExternError {
            name: call.name.to_owned(),
            message: format!("argument {i} must be an array"),
        })
}

/// The `float[]` payload of a `msg_send`: every element of the array at
/// `ptr`, which must all be floats.
pub(crate) fn float_payload(heap: &Heap, ptr: PtrIdx) -> Result<Vec<f64>, RuntimeError> {
    let len = heap.block_len(ptr)?;
    let mut data = Vec::with_capacity(len);
    for i in 0..len {
        let word = heap.load(ptr, i as i64)?;
        data.push(word.as_float().ok_or_else(|| RuntimeError::ExternError {
            name: "msg_send".into(),
            message: format!(
                "element {i} of the payload is {}, not float",
                word.kind_name()
            ),
        })?);
    }
    Ok(data)
}

impl Externals for ClusterExternals {
    fn call(&mut self, call: ExtCall<'_>, heap: &mut Heap) -> Result<Word, RuntimeError> {
        if self.cluster.is_failed(self.node) {
            // The point where an externally injected failure (the
            // coordinator's scheduled kill) becomes visible to this
            // process — record it as observed (`b` = 1).
            self.recorder.record(
                mojave_obs::EventKind::Failure,
                self.cluster.failure_epoch(self.node),
                1,
            );
            return Err(self.killed());
        }
        if self.cluster.is_deterministic() {
            // Virtual time: every external call costs a seeded per-node
            // tick, so `clock_us` readings replay exactly from the seed.
            let now_us = self.cluster.tick_virtual_clock(self.node);
            if call.name == "clock_us" {
                return Ok(Word::Int(now_us as i64));
            }
        }
        match call.name {
            "node_id" => Ok(Word::Int(self.node as i64)),
            "num_nodes" => Ok(Word::Int(self.cluster.num_nodes() as i64)),
            "inject_failure" => {
                self.cluster.fail_node(self.node);
                self.recorder.record(
                    mojave_obs::EventKind::Failure,
                    self.cluster.failure_epoch(self.node),
                    0,
                );
                Err(self.killed())
            }
            "msg_send" => {
                let dest = arg_int(&call, 0)?;
                let tag = arg_int(&call, 1)?;
                let data = float_payload(heap, arg_array(&call, 2)?)?;
                if dest < 0 || dest as usize >= self.cluster.num_nodes() {
                    return Err(RuntimeError::ExternError {
                        name: "msg_send".into(),
                        message: format!("destination node {dest} does not exist"),
                    });
                }
                let len = data.len() as u64;
                self.cluster.send(self.node, dest as usize, tag, data);
                self.recorder
                    .record(mojave_obs::EventKind::Send, dest as u64, len);
                Ok(Word::Int(MSG_OK))
            }
            "msg_recv" => {
                let src = arg_int(&call, 0)?;
                let tag = arg_int(&call, 1)?;
                let ptr = arg_array(&call, 2)?;
                if src < 0 || src as usize >= self.cluster.num_nodes() {
                    return Err(RuntimeError::ExternError {
                        name: "msg_recv".into(),
                        message: format!("source node {src} does not exist"),
                    });
                }
                match self.cluster.recv(self.node, src as usize, tag) {
                    RecvOutcome::Data(data) => {
                        let len = heap.block_len(ptr)?;
                        for (i, value) in data.iter().take(len).enumerate() {
                            heap.store(ptr, i as i64, Word::Float(*value))?;
                        }
                        self.recorder.record(
                            mojave_obs::EventKind::Recv,
                            src as u64,
                            data.len() as u64,
                        );
                        Ok(Word::Int(MSG_OK))
                    }
                    // Deterministic mode has no receive timeouts:
                    // `Cluster::recv` panics with a deadlock diagnostic
                    // before ever returning `Timeout` there, so a `Timeout`
                    // here is always a genuine wall-clock expiry.
                    RecvOutcome::PeerFailed | RecvOutcome::Timeout => {
                        self.recorder
                            .record(mojave_obs::EventKind::Recv, src as u64, u64::MAX);
                        Ok(Word::Int(MSG_ROLL))
                    }
                }
            }
            _ => self.inner.call(call, heap),
        }
    }

    fn roots(&self) -> Vec<Word> {
        self.inner.roots()
    }

    fn output(&self) -> &[String] {
        self.inner.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use std::time::Duration;

    fn small_cluster() -> Cluster {
        let mut config = ClusterConfig::new(2);
        config.recv_timeout = Duration::from_millis(50);
        Cluster::new(config)
    }

    #[test]
    fn node_identity_externals() {
        let cluster = small_cluster();
        let mut ext = ClusterExternals::new(cluster, 1);
        let mut heap = Heap::new();
        let id = ext
            .call(
                ExtCall {
                    name: "node_id",
                    args: &[],
                },
                &mut heap,
            )
            .unwrap();
        assert_eq!(id, Word::Int(1));
        let n = ext
            .call(
                ExtCall {
                    name: "num_nodes",
                    args: &[],
                },
                &mut heap,
            )
            .unwrap();
        assert_eq!(n, Word::Int(2));
    }

    #[test]
    fn message_roundtrip_through_heap_arrays() {
        let cluster = small_cluster();
        let mut sender = ClusterExternals::new(cluster.clone(), 0);
        let mut receiver = ClusterExternals::new(cluster, 1);
        let mut heap0 = Heap::new();
        let mut heap1 = Heap::new();

        let out = heap0.alloc_array(3, Word::Float(0.0)).unwrap();
        for (i, v) in [1.5, 2.5, 3.5].iter().enumerate() {
            heap0.store(out, i as i64, Word::Float(*v)).unwrap();
        }
        let status = sender
            .call(
                ExtCall {
                    name: "msg_send",
                    args: &[Word::Int(1), Word::Int(7), Word::Ptr(out)],
                },
                &mut heap0,
            )
            .unwrap();
        assert_eq!(status, Word::Int(MSG_OK));

        let buf = heap1.alloc_array(3, Word::Float(0.0)).unwrap();
        let status = receiver
            .call(
                ExtCall {
                    name: "msg_recv",
                    args: &[Word::Int(0), Word::Int(7), Word::Ptr(buf)],
                },
                &mut heap1,
            )
            .unwrap();
        assert_eq!(status, Word::Int(MSG_OK));
        assert_eq!(heap1.load(buf, 2).unwrap(), Word::Float(3.5));
    }

    #[test]
    fn msg_send_rejects_non_float_elements_by_index() {
        let cluster = small_cluster();
        let mut sender = ClusterExternals::new(cluster.clone(), 0);
        let mut heap = Heap::new();
        let out = heap.alloc_array(3, Word::Float(1.0)).unwrap();
        heap.store(out, 2, Word::Int(7)).unwrap();
        let err = sender
            .call(
                ExtCall {
                    name: "msg_send",
                    args: &[Word::Int(1), Word::Int(7), Word::Ptr(out)],
                },
                &mut heap,
            )
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::ExternError {
                name: "msg_send".into(),
                message: "element 2 of the payload is int, not float".into(),
            }
        );
        // Nothing was sent.
        assert_eq!(cluster.messages_sent(), 0);
    }

    #[test]
    fn recv_from_failed_peer_is_msg_roll_and_own_failure_kills() {
        let cluster = small_cluster();
        let mut receiver = ClusterExternals::new(cluster.clone(), 1);
        let mut heap = Heap::new();
        let buf = heap.alloc_array(1, Word::Float(0.0)).unwrap();
        cluster.fail_node(0);
        let status = receiver
            .call(
                ExtCall {
                    name: "msg_recv",
                    args: &[Word::Int(0), Word::Int(1), Word::Ptr(buf)],
                },
                &mut heap,
            )
            .unwrap();
        assert_eq!(status, Word::Int(MSG_ROLL));

        // Now the receiver's own node fails: its next call errors out.
        cluster.fail_node(1);
        assert!(receiver
            .call(
                ExtCall {
                    name: "clock_us",
                    args: &[]
                },
                &mut heap
            )
            .is_err());
    }

    #[test]
    fn timeouts_report_msg_roll() {
        let cluster = small_cluster();
        let mut receiver = ClusterExternals::new(cluster, 1);
        let mut heap = Heap::new();
        let buf = heap.alloc_array(1, Word::Float(0.0)).unwrap();
        let status = receiver
            .call(
                ExtCall {
                    name: "msg_recv",
                    args: &[Word::Int(0), Word::Int(3), Word::Ptr(buf)],
                },
                &mut heap,
            )
            .unwrap();
        assert_eq!(status, Word::Int(MSG_ROLL));
    }

    #[test]
    fn other_externals_delegate() {
        let cluster = small_cluster();
        let mut ext = ClusterExternals::new(cluster, 0);
        let mut heap = Heap::new();
        ext.call(
            ExtCall {
                name: "print_int",
                args: &[Word::Int(9)],
            },
            &mut heap,
        )
        .unwrap();
        assert_eq!(ext.output(), &["9".to_owned()]);
        assert!(matches!(
            ext.call(
                ExtCall {
                    name: "bogus",
                    args: &[]
                },
                &mut heap
            ),
            Err(RuntimeError::UnknownExtern(_))
        ));
    }
}
