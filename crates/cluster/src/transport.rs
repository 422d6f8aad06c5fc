//! The socket transport: wire-v5 images over real loopback TCP.
//!
//! Everything in this crate up to here simulates the paper's testbed
//! inside one process.  This module puts the cluster behind actual
//! sockets so a grid run can span **multiple OS processes**, with
//! migration images crossing a real `TcpStream` in their canonical wire
//! encoding, codec sets negotiated per connection, and the in-process
//! deterministic simulation kept as the testing twin.
//!
//! ## Topology: hub and spoke
//!
//! A [`ClusterServer`] owns the one true [`Cluster`] — mailboxes, the
//! checkpoint store, failure epochs, the seeded virtual clock.  Each node
//! process dials in with a [`RemoteCluster`] connection and drives its
//! worker through [`RemoteExternals`] and [`RemoteSink`], which forward
//! every cluster-touching operation to the hub as a small framed RPC
//! (see `mojave_wire::FrameKind`).  The hub plays the role the paper's
//! NFS server + network played: the shared substrate all nodes reach.
//!
//! Hub-and-spoke is what makes **digest parity with the in-process
//! simulation hold by construction**: all cluster state transitions
//! (epoch stamping, virtual-clock ticks, traffic counters, synchronous
//! failure injection inside checkpoint delivery) execute in exactly one
//! place — the same code the in-process run uses — while the image bytes
//! genuinely cross a socket.
//!
//! ## Connection lifecycle
//!
//! Dial → [`Hello`]/[`Welcome`] handshake (transport + format version
//! check, codec-set intersection) → request/response RPC loop →
//! `Bye` → close.  A dropped connection reconnects with bounded retries
//! and a fresh handshake; requests that died mid-flight are re-issued.
//! Re-issuing gives delivery **at-least-once** semantics across a
//! reconnect: a checkpoint whose `DeliverAck` was lost may be stored (and
//! its `note_checkpoint` hook fired) twice on the hub.  Checkpoint writes
//! are idempotent by name, so the store converges; only the
//! checkpoint-*count* accounting can inflate, and only on a connection
//! loss — which deterministic runs never produce.

use crate::cluster::{Cluster, RecvOutcome};
use crate::externals::{arg_array, arg_int, float_payload};
use crate::sink::ClusterSink;
use mojave_core::{
    DefaultExternals, DeliveryOutcome, ExtCall, Externals, MigrationImage, MigrationSink,
    RuntimeError, MSG_OK, MSG_ROLL,
};
use mojave_fir::MigrateProtocol;
use mojave_heap::{Heap, Word};
use mojave_obs::NodeObs;
use mojave_wire::{
    decode_error, read_frame, read_frame_counted, send_error, write_frame_counted, CodecSet,
    FrameError, FrameKind, Hello, LinkStats, Welcome, WireError, WireReader, WireWriter,
    FORMAT_VERSION, MIN_SUPPORTED_VERSION, TRANSPORT_VERSION,
};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long the server waits for a complete handshake before giving up
/// on a connection (a peer that dials and stalls must not pin a handler
/// thread forever).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Reconnect attempts before a request is reported as failed.
const RECONNECT_ATTEMPTS: u32 = 3;

/// Initial dial attempts (children may briefly race server startup).
const DIAL_ATTEMPTS: u32 = 40;

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// RPC payload encodings
// ---------------------------------------------------------------------------

/// The program a node process is asked to run, shipped in the `Job`
/// frame.  Carries *source*, not FIR: each node compiles for itself,
/// which is the paper's model (machines share programs, not binaries).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Worker program source (the grid stencil, normally).
    pub source: String,
    /// Step budget for the worker process.
    pub step_budget: Option<u64>,
    /// Emit incremental (delta) checkpoints when the sink has the base.
    pub delta_checkpoints: bool,
    /// Forced slab codec (wire id), or `None` to auto-choose per slab.
    pub heap_codec: Option<u8>,
    /// Route checkpoints through the asynchronous pipeline.
    pub async_checkpoints: bool,
    /// Observability level the node should run its flight recorder at
    /// (`mojave_obs::Level` as `u8`: 0 off, 1 metrics, 2 trace).
    pub obs_level: u8,
}

fn encode_job(job: &JobSpec, resume: Option<&[u8]>) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_str(&job.source);
    match job.step_budget {
        None => w.write_u8(0),
        Some(b) => {
            w.write_u8(1);
            w.write_u64(b);
        }
    }
    w.write_bool(job.delta_checkpoints);
    match job.heap_codec {
        None => w.write_u8(0xFF),
        Some(id) => w.write_u8(id),
    }
    w.write_bool(job.async_checkpoints);
    w.write_u8(job.obs_level);
    match resume {
        None => w.write_u8(0),
        Some(bytes) => {
            w.write_u8(1);
            w.write_bytes(bytes);
        }
    }
    w.into_bytes()
}

fn decode_job(payload: &[u8]) -> Result<(JobSpec, Option<Vec<u8>>), WireError> {
    let mut r = WireReader::new(payload);
    let source = r.read_str()?.to_owned();
    let step_budget = match r.read_u8()? {
        0 => None,
        _ => Some(r.read_u64()?),
    };
    let delta_checkpoints = r.read_bool()?;
    let heap_codec = match r.read_u8()? {
        0xFF => None,
        id => Some(id),
    };
    let async_checkpoints = r.read_bool()?;
    let obs_level = r.read_u8()?;
    let resume = match r.read_u8()? {
        0 => None,
        _ => Some(r.read_bytes()?.to_vec()),
    };
    Ok((
        JobSpec {
            source,
            step_budget,
            delta_checkpoints,
            heap_codec,
            async_checkpoints,
            obs_level,
        },
        resume,
    ))
}

/// Final run report a node process sends in its `Stats` frame — the
/// per-worker numbers the coordinator folds into a `GridReport`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Which node is reporting.
    pub node: u32,
    /// Exit code, if the worker halted normally.
    pub exit_code: Option<i64>,
    /// Error description, if it did not.
    pub error: Option<String>,
    /// `ProcessStats::rollbacks`.
    pub rollbacks: u64,
    /// `ProcessStats::checkpoints`.
    pub checkpoints: u64,
    /// `ProcessStats::delta_checkpoints`.
    pub delta_checkpoints: u64,
    /// `ProcessStats::speculations`.
    pub speculations: u64,
    /// `ProcessStats::checkpoint_pause_ns`.
    pub checkpoint_pause_ns: u64,
    /// `ProcessStats::checkpoint_encode_ns`.
    pub checkpoint_encode_ns: u64,
    /// Frames this node wrote to its control connection (incl. handshake).
    pub frames_sent: u64,
    /// Frames this node read from its control connection.
    pub frames_received: u64,
    /// Bytes written (frame headers included).
    pub bytes_sent: u64,
    /// Bytes read (frame headers included).
    pub bytes_received: u64,
}

fn encode_stats(stats: &NodeStats) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.write_u32(stats.node);
    match stats.exit_code {
        None => w.write_u8(0),
        Some(code) => {
            w.write_u8(1);
            w.write_i64(code);
        }
    }
    match &stats.error {
        None => w.write_u8(0),
        Some(msg) => {
            w.write_u8(1);
            w.write_str(msg);
        }
    }
    for v in [
        stats.rollbacks,
        stats.checkpoints,
        stats.delta_checkpoints,
        stats.speculations,
        stats.checkpoint_pause_ns,
        stats.checkpoint_encode_ns,
        stats.frames_sent,
        stats.frames_received,
        stats.bytes_sent,
        stats.bytes_received,
    ] {
        w.write_u64(v);
    }
    w.into_bytes()
}

fn decode_stats(payload: &[u8]) -> Result<NodeStats, WireError> {
    let mut r = WireReader::new(payload);
    let node = r.read_u32()?;
    let exit_code = match r.read_u8()? {
        0 => None,
        _ => Some(r.read_i64()?),
    };
    let error = match r.read_u8()? {
        0 => None,
        _ => Some(r.read_str()?.to_owned()),
    };
    Ok(NodeStats {
        node,
        exit_code,
        error,
        rollbacks: r.read_u64()?,
        checkpoints: r.read_u64()?,
        delta_checkpoints: r.read_u64()?,
        speculations: r.read_u64()?,
        checkpoint_pause_ns: r.read_u64()?,
        checkpoint_encode_ns: r.read_u64()?,
        frames_sent: r.read_u64()?,
        frames_received: r.read_u64()?,
        bytes_sent: r.read_u64()?,
        bytes_received: r.read_u64()?,
    })
}

fn encode_protocol(protocol: MigrateProtocol) -> u8 {
    match protocol {
        MigrateProtocol::Migrate => 0,
        MigrateProtocol::Suspend => 1,
        MigrateProtocol::Checkpoint => 2,
    }
}

fn decode_protocol(byte: u8) -> Result<MigrateProtocol, WireError> {
    match byte {
        0 => Ok(MigrateProtocol::Migrate),
        1 => Ok(MigrateProtocol::Suspend),
        2 => Ok(MigrateProtocol::Checkpoint),
        tag => Err(WireError::BadTag {
            context: "MigrateProtocol",
            tag: tag as u64,
        }),
    }
}

fn encode_outcome(outcome: &DeliveryOutcome) -> Vec<u8> {
    let mut w = WireWriter::new();
    match outcome {
        DeliveryOutcome::Stored => w.write_u8(0),
        DeliveryOutcome::Migrated => w.write_u8(1),
        DeliveryOutcome::Superseded => w.write_u8(2),
        DeliveryOutcome::Failed(msg) => {
            w.write_u8(3);
            w.write_str(msg);
        }
    }
    w.into_bytes()
}

fn decode_outcome(payload: &[u8]) -> Result<DeliveryOutcome, WireError> {
    let mut r = WireReader::new(payload);
    match r.read_u8()? {
        0 => Ok(DeliveryOutcome::Stored),
        1 => Ok(DeliveryOutcome::Migrated),
        2 => Ok(DeliveryOutcome::Superseded),
        3 => Ok(DeliveryOutcome::Failed(r.read_str()?.to_owned())),
        tag => Err(WireError::BadTag {
            context: "DeliveryOutcome",
            tag: tag as u64,
        }),
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct ServerState {
    job: Option<JobSpec>,
    /// Per-node resume image (set by the coordinator before it respawns a
    /// failed node; served once in that node's next `Job` reply).
    resume: HashMap<u32, Vec<u8>>,
    /// Node run reports, in arrival order.
    stats: VecDeque<NodeStats>,
    /// Codec set negotiated with each node's most recent connection.
    negotiated: HashMap<u32, CodecSet>,
    /// Frame/byte counters, shared across all of a node's connections
    /// (control + sink), so the hub sees per-node totals.
    traffic: HashMap<u32, Arc<LinkStats>>,
    /// The most recent observability report each node pushed.
    obs: HashMap<u32, NodeObs>,
}

struct ServerShared {
    cluster: Cluster,
    state: Mutex<ServerState>,
    stats_ready: Condvar,
    shutdown: AtomicBool,
}

/// The hub: owns the real [`Cluster`] and serves it to node processes
/// over TCP.
///
/// Binding spawns an accept loop; each connection gets a handler thread
/// that speaks the request/response protocol.  Handler threads touch
/// only the shared [`Cluster`] (which is already thread-safe, sharded
/// per node), so concurrent connections contend exactly as concurrent
/// worker threads do in the in-process simulation.
pub struct ClusterServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ClusterServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ClusterServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `cluster`.
    pub fn bind(cluster: Cluster, addr: &str) -> std::io::Result<ClusterServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            cluster,
            state: Mutex::new(ServerState {
                job: None,
                resume: HashMap::new(),
                stats: VecDeque::new(),
                negotiated: HashMap::new(),
                traffic: HashMap::new(),
                obs: HashMap::new(),
            }),
            stats_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("mojave-cluster-server".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn_shared = Arc::clone(&accept_shared);
                    let _ = thread::Builder::new()
                        .name("mojave-cluster-conn".into())
                        .spawn(move || handle_connection(conn_shared, stream));
                }
            })?;
        Ok(ClusterServer {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The address the server actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cluster behind the server.
    pub fn cluster(&self) -> Cluster {
        self.shared.cluster.clone()
    }

    /// Install the job every connecting node will be handed.
    pub fn set_job(&self, job: JobSpec) {
        lock(&self.shared.state).job = Some(job);
    }

    /// Arm a one-shot resume image for `node`: its next `Job` request is
    /// answered with the job *plus* this checkpoint image, and the node
    /// restarts from it instead of from `main` (the resurrection path).
    pub fn set_resume(&self, node: u32, image_bytes: Vec<u8>) {
        lock(&self.shared.state).resume.insert(node, image_bytes);
    }

    /// Pop the next node run report, blocking up to `timeout`.
    pub fn next_stats(&self, timeout: Duration) -> Option<NodeStats> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(stats) = state.stats.pop_front() {
                return Some(stats);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .shared
                .stats_ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = next;
        }
    }

    /// The codec set negotiated with each node's most recent connection,
    /// sorted by node id.
    pub fn negotiated_codecs(&self) -> Vec<(u32, CodecSet)> {
        let state = lock(&self.shared.state);
        let mut out: Vec<_> = state.negotiated.iter().map(|(n, c)| (*n, *c)).collect();
        out.sort_by_key(|(n, _)| *n);
        out
    }

    /// The hub-side frame/byte counters for `node`, aggregated across
    /// every connection that node has opened (control + sink).
    pub fn traffic(&self, node: u32) -> Option<Arc<LinkStats>> {
        lock(&self.shared.state).traffic.get(&node).cloned()
    }

    /// The most recent observability report each node pushed
    /// ([`FrameKind::ObsPush`]), sorted by node id.
    pub fn obs_reports(&self) -> Vec<NodeObs> {
        let state = lock(&self.shared.state);
        let mut out: Vec<_> = state.obs.values().cloned().collect();
        out.sort_by_key(|o| o.node);
        out
    }
}

impl Drop for ClusterServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Validate a client hello; `Err` is the message for the `Error` frame.
fn validate_hello(hello: &Hello, cluster: &Cluster) -> Result<(), String> {
    if hello.transport_version != TRANSPORT_VERSION {
        return Err(format!(
            "unsupported transport version {} (this server speaks {TRANSPORT_VERSION})",
            hello.transport_version
        ));
    }
    if hello.format_version > FORMAT_VERSION || hello.format_version < MIN_SUPPORTED_VERSION {
        return Err(format!(
            "unsupported image format version {} (this server decodes \
             {MIN_SUPPORTED_VERSION}..={FORMAT_VERSION})",
            hello.format_version
        ));
    }
    if hello.node as usize >= cluster.num_nodes() {
        return Err(format!(
            "node {} does not exist (cluster has {} nodes)",
            hello.node,
            cluster.num_nodes()
        ));
    }
    Ok(())
}

/// One connection's server half: handshake, then the RPC loop.  Never
/// panics on peer input — every malformed byte becomes a precise error
/// (an `Error` frame when the connection is still coherent) and at worst
/// closes this one connection.
fn handle_connection(shared: Arc<ServerShared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let hello = match read_frame(&mut stream) {
        Ok((FrameKind::Hello, payload)) => match Hello::from_payload(&payload) {
            Ok(hello) => hello,
            Err(e) => {
                send_error(&mut stream, &format!("bad hello: {e}"));
                return;
            }
        },
        Ok((kind, _)) => {
            send_error(&mut stream, &format!("expected Hello, got {kind}"));
            return;
        }
        Err(_) => return,
    };
    if let Err(message) = validate_hello(&hello, &shared.cluster) {
        send_error(&mut stream, &message);
        return;
    }
    let node = hello.node;
    let traffic = Arc::clone(
        lock(&shared.state)
            .traffic
            .entry(node)
            .or_insert_with(|| Arc::new(LinkStats::new())),
    );
    // The Hello frame arrived before we knew which node's counters to
    // charge; account for it retroactively so both ends agree.
    traffic.note_received(hello.to_payload().len());
    // Codec negotiation: what the client encodes ∩ what the hub's sink
    // accepts.  Unknown advertised bits were already dropped by
    // `from_bits`; Raw always survives.
    let negotiated = CodecSet::from_bits(hello.codec_bits)
        .intersect(ClusterSink::new(shared.cluster.clone(), node as usize).accepted_codecs());
    let welcome = Welcome {
        transport_version: TRANSPORT_VERSION,
        format_version: FORMAT_VERSION,
        num_nodes: shared.cluster.num_nodes() as u32,
        deterministic: shared.cluster.is_deterministic(),
        node_seed: shared.cluster.node_seed(node as usize),
        arch: shared.cluster.arch(node as usize),
        codec_bits: negotiated.bits(),
    };
    // Register the negotiated set *before* the Welcome goes out: the
    // client treats receiving Welcome as "the hub knows about me", so
    // queries racing the tail of the handshake must already see it.
    lock(&shared.state).negotiated.insert(node, negotiated);
    if write_frame_counted(
        &mut stream,
        FrameKind::Welcome,
        &welcome.to_payload(),
        &traffic,
    )
    .is_err()
    {
        return;
    }
    let _ = stream.set_read_timeout(None);

    loop {
        let (kind, payload) = match read_frame_counted(&mut stream, &traffic) {
            Ok(frame) => frame,
            // Orderly close or a dying peer: nothing left to answer.
            Err(FrameError::Closed | FrameError::Truncated { .. } | FrameError::Io(_)) => return,
            Err(e) => {
                send_error(&mut stream, &e.to_string());
                return;
            }
        };
        match serve_request(&shared, node, kind, &payload) {
            Ok(None) => return, // Bye
            Ok(Some((reply_kind, reply))) => {
                if write_frame_counted(&mut stream, reply_kind, &reply, &traffic).is_err() {
                    return;
                }
            }
            Err(message) => {
                send_error(&mut stream, &message);
                return;
            }
        }
    }
}

/// Dispatch one request frame.  `Ok(None)` ends the connection cleanly;
/// `Err` carries the message for a final `Error` frame.
fn serve_request(
    shared: &ServerShared,
    node: u32,
    kind: FrameKind,
    payload: &[u8],
) -> Result<Option<(FrameKind, Vec<u8>)>, String> {
    let cluster = &shared.cluster;
    let node_us = node as usize;
    let decode = |e: WireError| format!("bad {kind} payload: {e}");
    match kind {
        FrameKind::Tick => {
            // Mirrors the head of `ClusterExternals::call`: the failure
            // check gates the tick, and the tick only exists in
            // deterministic mode.
            let failed = cluster.is_failed(node_us);
            let now_us = if !failed && cluster.is_deterministic() {
                cluster.tick_virtual_clock(node_us)
            } else {
                0
            };
            let mut w = WireWriter::new();
            w.write_bool(failed);
            w.write_u64(now_us);
            Ok(Some((FrameKind::TickReply, w.into_bytes())))
        }
        FrameKind::Send => {
            let mut r = WireReader::new(payload);
            let dest = r.read_u32().map_err(decode)? as usize;
            let tag = r.read_i64().map_err(decode)?;
            let len = r.read_len().map_err(decode)?;
            let mut data = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                data.push(r.read_f64().map_err(decode)?);
            }
            if dest >= cluster.num_nodes() {
                return Err(format!("destination node {dest} does not exist"));
            }
            cluster.send(node_us, dest, tag, data);
            Ok(Some((FrameKind::SendAck, Vec::new())))
        }
        FrameKind::Recv => {
            let mut r = WireReader::new(payload);
            let src = r.read_u32().map_err(decode)? as usize;
            let tag = r.read_i64().map_err(decode)?;
            if src >= cluster.num_nodes() {
                return Err(format!("source node {src} does not exist"));
            }
            // Blocks this handler thread exactly as it would block a
            // worker thread in-process.
            let outcome = cluster.recv(node_us, src, tag);
            let mut w = WireWriter::new();
            match outcome {
                RecvOutcome::Data(data) => {
                    w.write_u8(0);
                    w.write_uvarint(data.len() as u64);
                    for v in data {
                        w.write_f64(v);
                    }
                }
                RecvOutcome::PeerFailed => w.write_u8(1),
                RecvOutcome::Timeout => w.write_u8(2),
            }
            Ok(Some((FrameKind::RecvReply, w.into_bytes())))
        }
        FrameKind::Fail => {
            cluster.fail_node(node_us);
            Ok(Some((FrameKind::FailAck, Vec::new())))
        }
        FrameKind::Deliver => {
            let mut r = WireReader::new(payload);
            let protocol = decode_protocol(r.read_u8().map_err(decode)?).map_err(decode)?;
            let target = r.read_str().map_err(decode)?.to_owned();
            let bytes = r.read_bytes().map_err(decode)?;
            // Image bytes are *application* input, not protocol framing:
            // hostile bytes here produce a Failed outcome on a healthy
            // connection, never a closed one.
            let outcome = match MigrationImage::from_bytes(bytes) {
                Ok(image) => {
                    ClusterSink::new(cluster.clone(), node_us).deliver(protocol, &target, &image)
                }
                Err(e) => DeliveryOutcome::Failed(format!("image rejected: {e}")),
            };
            Ok(Some((FrameKind::DeliverAck, encode_outcome(&outcome))))
        }
        FrameKind::HasBase => {
            let mut r = WireReader::new(payload);
            let base = r.read_str().map_err(decode)?;
            let fingerprint = r.read_u64().map_err(decode)?;
            let answer = ClusterSink::new(cluster.clone(), node_us).has_base(base, fingerprint);
            let mut w = WireWriter::new();
            w.write_bool(answer);
            Ok(Some((FrameKind::HasBaseReply, w.into_bytes())))
        }
        FrameKind::Job => {
            let mut state = lock(&shared.state);
            let Some(job) = state.job.clone() else {
                return Err("no job configured on this server".to_owned());
            };
            let resume = state.resume.remove(&node);
            Ok(Some((FrameKind::Job, encode_job(&job, resume.as_deref()))))
        }
        FrameKind::Stats => {
            let stats = decode_stats(payload).map_err(decode)?;
            if stats.node != node {
                return Err(format!(
                    "stats report for node {} arrived on node {node}'s connection",
                    stats.node
                ));
            }
            lock(&shared.state).stats.push_back(stats);
            shared.stats_ready.notify_all();
            Ok(Some((FrameKind::StatsAck, Vec::new())))
        }
        FrameKind::ObsPush => {
            let report =
                NodeObs::from_bytes(payload).map_err(|e| format!("bad ObsPush payload: {e}"))?;
            if report.node != node {
                return Err(format!(
                    "obs report for node {} arrived on node {node}'s connection",
                    report.node
                ));
            }
            lock(&shared.state).obs.insert(report.node, report);
            Ok(Some((FrameKind::ObsAck, Vec::new())))
        }
        FrameKind::ObsQuery => {
            // Scrape: every stored per-node report, sorted by node id so
            // the reply is deterministic, each length-prefixed.
            let reports = {
                let state = lock(&shared.state);
                let mut out: Vec<_> = state.obs.values().cloned().collect();
                out.sort_by_key(|o| o.node);
                out
            };
            let mut w = WireWriter::new();
            w.write_u32(reports.len() as u32);
            for report in &reports {
                w.write_bytes(&report.to_bytes());
            }
            Ok(Some((FrameKind::ObsReply, w.into_bytes())))
        }
        FrameKind::Bye => Ok(None),
        other => Err(format!("unexpected {other} frame from a client")),
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

struct ClientState {
    stream: Option<TcpStream>,
}

struct ClientShared {
    addr: String,
    hello: Hello,
    welcome: Welcome,
    state: Mutex<ClientState>,
    /// Client-side frame/byte counters for this connection (handshake
    /// frames included), mirroring the hub's per-node accounting.
    traffic: LinkStats,
    /// Optional flight recorder: reconnects show up as events.
    recorder: std::sync::OnceLock<mojave_obs::Recorder>,
}

/// A node process's connection to the [`ClusterServer`].
///
/// Cheap to clone (shared connection).  Each RPC holds the connection
/// lock for its full request/response round trip, so concurrent callers
/// (a mutator thread and a checkpoint-pipeline worker) serialize — one
/// outstanding request per connection, no response mismatching.  Callers
/// that need genuine overlap open a second connection for the same node
/// (as `mcc node` does for its sink when the pipeline is on).
#[derive(Clone)]
pub struct RemoteCluster {
    shared: Arc<ClientShared>,
}

impl std::fmt::Debug for RemoteCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteCluster")
            .field("addr", &self.shared.addr)
            .field("node", &self.shared.hello.node)
            .finish()
    }
}

fn dial(addr: &str, attempts: u32) -> Result<TcpStream, FrameError> {
    let mut last = None;
    for attempt in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
        thread::sleep(Duration::from_millis(25 * (attempt as u64 + 1).min(8)));
    }
    Err(FrameError::Io(last.unwrap_or_else(|| {
        std::io::Error::other("no dial attempts made")
    })))
}

fn handshake(
    stream: &mut TcpStream,
    hello: &Hello,
    traffic: &LinkStats,
) -> Result<Welcome, FrameError> {
    write_frame_counted(stream, FrameKind::Hello, &hello.to_payload(), traffic)?;
    match read_frame_counted(stream, traffic)? {
        (FrameKind::Welcome, payload) => Welcome::from_payload(&payload),
        (FrameKind::Error, payload) => Err(FrameError::Protocol(decode_error(&payload))),
        (kind, _) => Err(FrameError::Protocol(format!(
            "expected Welcome, got {kind}"
        ))),
    }
}

impl RemoteCluster {
    /// Dial `addr` as `node` and run the handshake, advertising `codecs`.
    pub fn connect(addr: &str, node: u32, codecs: CodecSet) -> Result<RemoteCluster, FrameError> {
        let hello = Hello::current(node, codecs.bits(), mojave_core::Machine::DEFAULT_ARCH);
        let traffic = LinkStats::new();
        let mut stream = dial(addr, DIAL_ATTEMPTS)?;
        let welcome = handshake(&mut stream, &hello, &traffic)?;
        Ok(RemoteCluster {
            shared: Arc::new(ClientShared {
                addr: addr.to_owned(),
                hello,
                welcome,
                state: Mutex::new(ClientState {
                    stream: Some(stream),
                }),
                traffic,
                recorder: std::sync::OnceLock::new(),
            }),
        })
    }

    /// Attach a flight recorder: connection losses that lead to a
    /// successful reconnect are recorded as [`mojave_obs::EventKind::Reconnect`]
    /// events.  Only the first recorder sticks.
    pub fn set_recorder(&self, recorder: mojave_obs::Recorder) {
        let _ = self.shared.recorder.set(recorder);
    }

    /// This connection's client-side frame/byte counters (handshake
    /// included; both directions).
    pub fn link_stats(&self) -> &LinkStats {
        &self.shared.traffic
    }

    /// The handshake result: cluster shape, determinism, seed, arch,
    /// negotiated codecs.
    pub fn welcome(&self) -> &Welcome {
        &self.shared.welcome
    }

    /// The codec set both ends agreed on.
    pub fn negotiated_codecs(&self) -> CodecSet {
        CodecSet::from_bits(self.shared.welcome.codec_bits)
    }

    /// One request/response round trip, reconnecting (with a fresh
    /// handshake) and re-issuing on transport failure, up to
    /// [`RECONNECT_ATTEMPTS`] times.  Protocol-level failures (an `Error`
    /// frame, an unexpected reply kind) are never retried.
    fn rpc(
        &self,
        kind: FrameKind,
        payload: &[u8],
        expect: FrameKind,
    ) -> Result<Vec<u8>, FrameError> {
        let mut state = lock(&self.shared.state);
        let mut last = FrameError::Closed;
        for attempt in 0..=RECONNECT_ATTEMPTS {
            if state.stream.is_none() {
                if attempt > 0 {
                    thread::sleep(Duration::from_millis(50 * attempt as u64));
                }
                match dial(&self.shared.addr, 1).and_then(|mut s| {
                    handshake(&mut s, &self.shared.hello, &self.shared.traffic).map(|_| s)
                }) {
                    Ok(stream) => {
                        state.stream = Some(stream);
                        if let Some(recorder) = self.shared.recorder.get() {
                            recorder.record(
                                mojave_obs::EventKind::Reconnect,
                                attempt as u64,
                                kind as u64,
                            );
                        }
                    }
                    Err(e @ FrameError::Protocol(_)) => return Err(e),
                    Err(e) => {
                        last = e;
                        continue;
                    }
                }
            }
            let stream = state.stream.as_mut().expect("stream just ensured");
            let traffic = &self.shared.traffic;
            let result = write_frame_counted(stream, kind, payload, traffic)
                .and_then(|()| read_frame_counted(stream, traffic));
            match result {
                Ok((k, reply)) if k == expect => return Ok(reply),
                Ok((FrameKind::Error, reply)) => {
                    state.stream = None;
                    return Err(FrameError::Protocol(decode_error(&reply)));
                }
                Ok((k, _)) => {
                    state.stream = None;
                    return Err(FrameError::Protocol(format!("expected {expect}, got {k}")));
                }
                Err(
                    e @ (FrameError::Io(_) | FrameError::Closed | FrameError::Truncated { .. }),
                ) => {
                    state.stream = None;
                    last = e;
                }
                Err(e) => {
                    state.stream = None;
                    return Err(e);
                }
            }
        }
        Err(last)
    }

    /// The per-external-call probe: `(own node failed?, virtual µs)`.
    pub fn tick(&self) -> Result<(bool, u64), FrameError> {
        let reply = self.rpc(FrameKind::Tick, &[], FrameKind::TickReply)?;
        let mut r = WireReader::new(&reply);
        Ok((r.read_bool()?, r.read_u64()?))
    }

    /// `msg_send`: ship a tagged float payload to `dest`'s mailbox.
    pub fn send_msg(&self, dest: u32, tag: i64, data: &[f64]) -> Result<(), FrameError> {
        let mut w = WireWriter::new();
        w.write_u32(dest);
        w.write_i64(tag);
        w.write_uvarint(data.len() as u64);
        for v in data {
            w.write_f64(*v);
        }
        self.rpc(FrameKind::Send, &w.into_bytes(), FrameKind::SendAck)?;
        Ok(())
    }

    /// `msg_recv`: block on the hub until data, peer failure or timeout.
    pub fn recv_msg(&self, src: u32, tag: i64) -> Result<RecvOutcome, FrameError> {
        let mut w = WireWriter::new();
        w.write_u32(src);
        w.write_i64(tag);
        let reply = self.rpc(FrameKind::Recv, &w.into_bytes(), FrameKind::RecvReply)?;
        let mut r = WireReader::new(&reply);
        match r.read_u8()? {
            0 => {
                let len = r.read_len()?;
                let mut data = Vec::with_capacity(len.min(1 << 16));
                for _ in 0..len {
                    data.push(r.read_f64()?);
                }
                Ok(RecvOutcome::Data(data))
            }
            1 => Ok(RecvOutcome::PeerFailed),
            2 => Ok(RecvOutcome::Timeout),
            tag => Err(FrameError::Wire(WireError::BadTag {
                context: "RecvReply",
                tag: tag as u64,
            })),
        }
    }

    /// Mark this connection's node failed on the hub.
    pub fn inject_failure(&self) -> Result<(), FrameError> {
        self.rpc(FrameKind::Fail, &[], FrameKind::FailAck)?;
        Ok(())
    }

    /// Ship a wire image for hub-side delivery (store or migrate).
    pub fn deliver(
        &self,
        protocol: MigrateProtocol,
        target: &str,
        image_bytes: &[u8],
    ) -> Result<DeliveryOutcome, FrameError> {
        let mut w = WireWriter::new();
        w.write_u8(encode_protocol(protocol));
        w.write_str(target);
        w.write_bytes(image_bytes);
        let reply = self.rpc(FrameKind::Deliver, &w.into_bytes(), FrameKind::DeliverAck)?;
        Ok(decode_outcome(&reply)?)
    }

    /// Ask whether the hub store still holds `base` with this content.
    pub fn has_base(&self, base: &str, fingerprint: u64) -> Result<bool, FrameError> {
        let mut w = WireWriter::new();
        w.write_str(base);
        w.write_u64(fingerprint);
        let reply = self.rpc(FrameKind::HasBase, &w.into_bytes(), FrameKind::HasBaseReply)?;
        Ok(WireReader::new(&reply).read_bool()?)
    }

    /// Fetch the job this node should run (plus a resume image, when the
    /// coordinator armed one — the resurrection path).
    pub fn fetch_job(&self) -> Result<(JobSpec, Option<Vec<u8>>), FrameError> {
        let reply = self.rpc(FrameKind::Job, &[], FrameKind::Job)?;
        Ok(decode_job(&reply)?)
    }

    /// Report this node's final run statistics.
    pub fn report_stats(&self, stats: &NodeStats) -> Result<(), FrameError> {
        self.rpc(FrameKind::Stats, &encode_stats(stats), FrameKind::StatsAck)?;
        Ok(())
    }

    /// Push this node's observability report to the hub, where `mcc
    /// stats` / `mcc trace` (and the coordinator) can scrape it.
    pub fn push_obs(&self, report: &NodeObs) -> Result<(), FrameError> {
        self.rpc(FrameKind::ObsPush, &report.to_bytes(), FrameKind::ObsAck)?;
        Ok(())
    }

    /// Scrape every node's most recent observability report from the hub.
    pub fn query_obs(&self) -> Result<Vec<NodeObs>, FrameError> {
        let reply = self.rpc(FrameKind::ObsQuery, &[], FrameKind::ObsReply)?;
        let mut r = WireReader::new(&reply);
        let count = r.read_u32()?;
        let mut out = Vec::with_capacity(count.min(1 << 16) as usize);
        for _ in 0..count {
            let bytes = r.read_bytes()?;
            out.push(NodeObs::from_bytes(bytes).map_err(FrameError::Protocol)?);
        }
        Ok(out)
    }

    /// Orderly goodbye (best-effort) and connection close.
    pub fn bye(&self) {
        let mut state = lock(&self.shared.state);
        if let Some(stream) = state.stream.as_mut() {
            let _ = write_frame_counted(stream, FrameKind::Bye, &[], &self.shared.traffic);
        }
        state.stream = None;
    }
}

// ---------------------------------------------------------------------------
// Remote externals + sink: the node-process twins of ClusterExternals /
// ClusterSink.
// ---------------------------------------------------------------------------

/// [`Externals`] for a worker in a node process: the exact semantics of
/// [`crate::ClusterExternals`], with every cluster-touching operation
/// forwarded to the hub.  Node identity and the RNG seed are answered
/// locally from the handshake; everything else that the in-process
/// externals answer from shared state becomes one RPC.
#[derive(Debug)]
pub struct RemoteExternals {
    remote: RemoteCluster,
    node: u32,
    num_nodes: u32,
    deterministic: bool,
    inner: DefaultExternals,
}

impl RemoteExternals {
    /// Externals over an established connection.
    pub fn new(remote: RemoteCluster) -> RemoteExternals {
        let welcome = remote.welcome().clone();
        let node = remote.shared.hello.node;
        RemoteExternals {
            remote,
            node,
            num_nodes: welcome.num_nodes,
            deterministic: welcome.deterministic,
            inner: DefaultExternals::new(welcome.node_seed),
        }
    }

    fn killed(&self) -> RuntimeError {
        RuntimeError::ExternError {
            name: "node".into(),
            message: format!("node {} has failed", self.node),
        }
    }

    fn transport_err(&self, call: &str, e: FrameError) -> RuntimeError {
        RuntimeError::ExternError {
            name: call.to_owned(),
            message: format!("transport: {e}"),
        }
    }
}

impl Externals for RemoteExternals {
    fn call(&mut self, call: ExtCall<'_>, heap: &mut Heap) -> Result<Word, RuntimeError> {
        // One probe per external call, mirroring the in-process order:
        // the failure check gates everything, and in deterministic mode
        // the probe *is* the virtual-clock tick (exactly one per call, so
        // remote clock readings replay identically to in-process ones).
        let (failed, now_us) = self
            .remote
            .tick()
            .map_err(|e| self.transport_err(call.name, e))?;
        if failed {
            return Err(self.killed());
        }
        if self.deterministic && call.name == "clock_us" {
            return Ok(Word::Int(now_us as i64));
        }
        match call.name {
            "node_id" => Ok(Word::Int(self.node as i64)),
            "num_nodes" => Ok(Word::Int(self.num_nodes as i64)),
            "inject_failure" => {
                self.remote
                    .inject_failure()
                    .map_err(|e| self.transport_err(call.name, e))?;
                Err(self.killed())
            }
            "msg_send" => {
                let dest = arg_int(&call, 0)?;
                let tag = arg_int(&call, 1)?;
                let data = float_payload(heap, arg_array(&call, 2)?)?;
                if dest < 0 || dest as u32 >= self.num_nodes {
                    return Err(RuntimeError::ExternError {
                        name: "msg_send".into(),
                        message: format!("destination node {dest} does not exist"),
                    });
                }
                self.remote
                    .send_msg(dest as u32, tag, &data)
                    .map_err(|e| self.transport_err(call.name, e))?;
                Ok(Word::Int(MSG_OK))
            }
            "msg_recv" => {
                let src = arg_int(&call, 0)?;
                let tag = arg_int(&call, 1)?;
                let ptr = arg_array(&call, 2)?;
                if src < 0 || src as u32 >= self.num_nodes {
                    return Err(RuntimeError::ExternError {
                        name: "msg_recv".into(),
                        message: format!("source node {src} does not exist"),
                    });
                }
                match self
                    .remote
                    .recv_msg(src as u32, tag)
                    .map_err(|e| self.transport_err(call.name, e))?
                {
                    RecvOutcome::Data(data) => {
                        let len = heap.block_len(ptr)?;
                        for (i, value) in data.iter().take(len).enumerate() {
                            heap.store(ptr, i as i64, Word::Float(*value))?;
                        }
                        Ok(Word::Int(MSG_OK))
                    }
                    RecvOutcome::PeerFailed | RecvOutcome::Timeout => Ok(Word::Int(MSG_ROLL)),
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

/// [`MigrationSink`] for a worker in a node process: images are encoded
/// locally (in the negotiated codec set) and shipped to the hub, where
/// the real [`ClusterSink`] stores or routes them with the same
/// accounting the in-process run performs.
#[derive(Debug)]
pub struct RemoteSink {
    remote: RemoteCluster,
}

impl RemoteSink {
    /// A sink over an established connection.
    pub fn new(remote: RemoteCluster) -> RemoteSink {
        RemoteSink { remote }
    }
}

impl MigrationSink for RemoteSink {
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        let bytes = image.to_bytes();
        match self.remote.deliver(protocol, target, &bytes) {
            Ok(outcome) => outcome,
            Err(e) => DeliveryOutcome::Failed(format!("transport: {e}")),
        }
    }

    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        // A transport failure answers "no": the worker falls back to a
        // full image, which is always resolvable.
        self.remote
            .has_base(base, base_fingerprint)
            .unwrap_or(false)
    }

    fn accepted_codecs(&self) -> CodecSet {
        self.remote.negotiated_codecs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn served_cluster(nodes: usize) -> (ClusterServer, String) {
        let cluster = Cluster::new(ClusterConfig::deterministic(nodes, 11));
        let server = ClusterServer::bind(cluster, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().to_string();
        (server, addr)
    }

    #[test]
    fn handshake_negotiates_codecs_and_reports_shape() {
        let (server, addr) = served_cluster(3);
        let remote = RemoteCluster::connect(&addr, 2, CodecSet::all()).expect("connect");
        let welcome = remote.welcome();
        assert_eq!(welcome.num_nodes, 3);
        assert!(welcome.deterministic);
        assert_eq!(welcome.node_seed, server.cluster().node_seed(2));
        assert_eq!(remote.negotiated_codecs(), CodecSet::all());
        let negotiated = server.negotiated_codecs();
        assert_eq!(negotiated, vec![(2, CodecSet::all())]);

        // A narrower client narrows the negotiated set.
        let narrow = RemoteCluster::connect(&addr, 1, CodecSet::only(mojave_wire::CodecId::Lz))
            .expect("connect");
        assert_eq!(
            narrow.negotiated_codecs(),
            CodecSet::only(mojave_wire::CodecId::Lz)
        );
    }

    #[test]
    fn handshake_rejects_bad_node_and_version() {
        let (_server, addr) = served_cluster(2);
        let err = RemoteCluster::connect(&addr, 9, CodecSet::all()).unwrap_err();
        assert!(
            matches!(&err, FrameError::Protocol(msg) if msg.contains("node 9")),
            "got {err:?}"
        );
    }

    #[test]
    fn messages_cross_the_socket_into_real_mailboxes() {
        let (server, addr) = served_cluster(2);
        let a = RemoteCluster::connect(&addr, 0, CodecSet::all()).expect("connect");
        let b = RemoteCluster::connect(&addr, 1, CodecSet::all()).expect("connect");
        a.send_msg(1, 7, &[1.5, 2.5]).expect("send");
        assert_eq!(
            b.recv_msg(0, 7).expect("recv"),
            RecvOutcome::Data(vec![1.5, 2.5])
        );
        assert_eq!(server.cluster().messages_sent(), 1);
        a.bye();
        b.bye();
    }

    #[test]
    fn ticks_advance_the_hub_virtual_clock_and_see_failures() {
        let (server, addr) = served_cluster(2);
        let remote = RemoteCluster::connect(&addr, 0, CodecSet::all()).expect("connect");
        let (failed, t1) = remote.tick().expect("tick");
        assert!(!failed);
        let (_, t2) = remote.tick().expect("tick");
        assert!(t2 > t1, "virtual clock must advance: {t1} -> {t2}");
        server.cluster().fail_node(0);
        let (failed, _) = remote.tick().expect("tick");
        assert!(failed);
    }

    #[test]
    fn job_and_stats_round_trip() {
        let (server, addr) = served_cluster(2);
        server.set_job(JobSpec {
            source: "worker source here".into(),
            step_budget: Some(1000),
            delta_checkpoints: true,
            heap_codec: None,
            async_checkpoints: true,
            obs_level: 1,
        });
        let remote = RemoteCluster::connect(&addr, 1, CodecSet::all()).expect("connect");
        let (job, resume) = remote.fetch_job().expect("job");
        assert_eq!(job.source, "worker source here");
        assert_eq!(job.step_budget, Some(1000));
        assert!(resume.is_none());

        server.set_resume(1, vec![1, 2, 3]);
        let (_, resume) = remote.fetch_job().expect("job");
        assert_eq!(resume, Some(vec![1, 2, 3]));
        // The resume image is one-shot.
        let (_, resume) = remote.fetch_job().expect("job");
        assert!(resume.is_none());

        let stats = NodeStats {
            node: 1,
            exit_code: Some(4200),
            checkpoints: 3,
            ..NodeStats::default()
        };
        remote.report_stats(&stats).expect("stats");
        let got = server.next_stats(Duration::from_secs(5)).expect("arrives");
        assert_eq!(got, stats);
    }

    #[test]
    fn remote_msg_send_rejects_non_float_elements_by_index() {
        let (server, addr) = served_cluster(2);
        let remote = RemoteCluster::connect(&addr, 0, CodecSet::all()).expect("connect");
        let mut ext = RemoteExternals::new(remote);
        let mut heap = Heap::new();
        let out = heap.alloc_array(3, Word::Float(1.0)).unwrap();
        heap.store(out, 0, Word::Bool(true)).unwrap();
        let err = ext
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
                message: "element 0 of the payload is bool, not float".into(),
            }
        );
        // Nothing reached the hub's mailboxes.
        assert_eq!(server.cluster().messages_sent(), 0);
    }

    #[test]
    fn hub_side_delivery_uses_the_real_cluster_sink() {
        let (server, addr) = served_cluster(2);
        let remote = RemoteCluster::connect(&addr, 0, CodecSet::all()).expect("connect");
        // Hostile image bytes: precise Failed outcome, connection healthy.
        let outcome = remote
            .deliver(MigrateProtocol::Checkpoint, "ck", b"not an image")
            .expect("rpc survives");
        assert!(
            matches!(&outcome, DeliveryOutcome::Failed(msg) if msg.contains("image rejected")),
            "got {outcome:?}"
        );
        // The connection is still good and the store is still empty.
        assert!(server.cluster().store().names().is_empty());
        assert!(!remote.has_base("ck", 1).expect("rpc"));
    }
}
