//! Timing decorators around the program's public `Store`, `Transport`
//! and `Spawn` traits. Each forwards every call unchanged to the wrapped
//! implementation and only records how long it took and what crossed it.

use crate::trace;
use pac_net::wire::encode_frame;
use pac_net::{
    Conn, Listener, Msg, NetError, PollConn, PollTransport, Readiness, Spawn, SpawnedWorld,
    Spawner, Tcp, Transport,
};
use pac_store::{Committed, DedupStats, Store, StoreError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What a [`TimedStore`] saw.
#[derive(Debug, Default, Clone)]
pub struct StoreStats {
    /// Nanoseconds per successful commit.
    pub commit_ns: Vec<f64>,
    /// Nanoseconds per `latest` / `committed` read.
    pub read_ns: Vec<f64>,
    /// Payload plus metadata bytes of successful commits.
    pub bytes_written: u64,
    /// Payload bytes of successful commits.
    pub payload_bytes: u64,
    /// Payload bytes those commits shared with earlier ones (dedup).
    pub bytes_shared: u64,
}

/// A [`Store`] that times every call into the store it wraps.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
    stats: Arc<Mutex<StoreStats>>,
}

impl<S: Store> TimedStore<S> {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: S, stats: Arc<Mutex<StoreStats>>) -> Self {
        TimedStore { inner, stats }
    }

    fn stats(&self) -> MutexGuard<'_, StoreStats> {
        self.stats.lock().expect("store stats poisoned")
    }

    fn timed_read<T>(&self, f: impl FnOnce(&S) -> T) -> T {
        let _span = trace::span("pac-store", "store.read");
        let t0 = Instant::now();
        let out = f(&self.inner);
        let ns = t0.elapsed().as_nanos() as f64;
        self.stats().read_ns.push(ns);
        out
    }
}

impl<S: Store> Store for TimedStore<S> {
    fn commit(&mut self, payload: &[u8], meta: &[u8]) -> Result<u64, StoreError> {
        let shared0 = self.inner.dedup_stats().bytes_shared;
        let _span = trace::span("pac-store", "store.commit");
        let t0 = Instant::now();
        let out = self.inner.commit(payload, meta);
        let ns = t0.elapsed().as_nanos() as f64;
        if out.is_ok() {
            let shared = self.inner.dedup_stats().bytes_shared - shared0;
            let mut st = self.stats();
            st.bytes_shared += shared;
            st.commit_ns.push(ns);
            st.bytes_written += (payload.len() + meta.len()) as u64;
            st.payload_bytes += payload.len() as u64;
        }
        out
    }

    fn latest(&self) -> Result<Option<Committed>, StoreError> {
        self.timed_read(|s| s.latest())
    }

    fn committed(&self, seq: u64) -> Result<Option<Committed>, StoreError> {
        self.timed_read(|s| s.committed(seq))
    }

    fn commits(&self) -> u64 {
        self.inner.commits()
    }

    fn dedup_stats(&self) -> DedupStats {
        self.inner.dedup_stats()
    }

    fn arm_crash(&mut self, at_byte: u64) {
        self.inner.arm_crash(at_byte);
    }
}

/// Store-layer metrics from a [`TimedStore`]'s record over
/// `rounds` traced rounds.
pub fn store_metrics(st: &StoreStats, rounds: usize) -> Vec<(&'static str, f64)> {
    let p50 = crate::stats::median(&st.commit_ns);
    let p99 = crate::stats::tail(&st.commit_ns, 99.0).map_or(0.0, |(_, v)| v);
    let rounds = rounds.max(1) as f64;
    vec![
        ("store.commit_us_p50", p50 / 1e3),
        ("store.commit_us_p99", p99 / 1e3),
        ("store.read_us", crate::stats::mean(&st.read_ns) / 1e3),
        ("store.commits", st.commit_ns.len() as f64 / rounds),
        ("store.bytes_written", st.bytes_written as f64 / rounds),
        (
            "store.dedup_share",
            st.bytes_shared as f64 / (st.payload_bytes as f64).max(1.0),
        ),
    ]
}

/// A group of `Step` frames dispatched together, open until every
/// rank it went to has answered.
#[derive(Debug)]
struct StepGroup {
    step: u64,
    dispatched_ns: u64,
    members: Vec<u64>,
    outstanding: usize,
}

/// What the coordinator side of a [`TimedTcp`] world saw.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Frame bytes the coordinator sent.
    pub bytes_sent: u64,
    /// Frame bytes the coordinator received.
    pub bytes_recv: u64,
    /// Frames the coordinator sent.
    pub msgs_sent: u64,
    /// Frames the coordinator received.
    pub msgs_recv: u64,
    /// Nanoseconds blocked inside `recv`.
    pub recv_wait_ns: u64,
    /// `wait_ready` returns.
    pub wakeups: u64,
    /// Wakeups after which no frame completed before the next wait.
    pub idle_wakeups: u64,
    /// Per step: nanoseconds from its first `Step` frame to the last
    /// `Done` verdict.
    pub step_ns: Vec<f64>,
    /// Per world: nanoseconds from `launch` to its last `Ready`.
    pub setup_ns: Vec<f64>,
    /// Record only `setup_ns`: no frame is encoded to count its bytes and
    /// no step is followed, so an untraced round stays as fast as one
    /// over the bare transport.
    setup_only: bool,
    wake_open: bool,
    wake_productive: bool,
    groups: Vec<StepGroup>,
    /// Worlds launched and not yet wired: `(rendezvous port, launch ns,
    /// workers still to report Ready)`.
    launches: Vec<(u16, u64, usize)>,
}

impl NetStats {
    /// A record of each world's launch-to-Ready time and nothing else.
    pub fn setup_only() -> Self {
        NetStats {
            setup_only: true,
            ..NetStats::default()
        }
    }

    fn on_launch(&mut self, rdv_port: u16, world: usize) {
        self.launches.push((rdv_port, trace::now_ns(), world));
    }

    /// A worker that dialed `rdv_port` reported `Ready`; the world's last
    /// one closes its set-up time.
    fn on_ready(&mut self, rdv_port: Option<u16>) {
        let now = trace::now_ns();
        if let Some(pos) = self
            .launches
            .iter()
            .position(|&(port, _, left)| Some(port) == rdv_port && left > 0)
        {
            let launch = &mut self.launches[pos];
            launch.2 -= 1;
            if launch.2 == 0 {
                let (_, start, _) = self.launches.remove(pos);
                self.setup_ns.push(now.saturating_sub(start) as f64);
            }
        }
    }

    fn on_send(&mut self, conn: u64, msg: &Msg) {
        if self.setup_only {
            return;
        }
        self.bytes_sent += encode_frame(msg).len() as u64;
        self.msgs_sent += 1;
        if let Msg::Step { step, .. } = msg {
            let now = trace::now_ns();
            let joins = self.groups.last().is_some_and(|g| {
                g.step == *step && g.outstanding > 0 && !g.members.contains(&conn)
            });
            if !joins {
                self.groups.push(StepGroup {
                    step: *step,
                    dispatched_ns: now,
                    members: Vec::new(),
                    outstanding: 0,
                });
            }
            let g = self.groups.last_mut().expect("group just ensured");
            g.members.push(conn);
            g.outstanding += 1;
        }
    }

    fn on_recv(&mut self, conn: u64, rdv_port: Option<u16>, msg: &Msg) {
        if let Msg::Ready = msg {
            self.on_ready(rdv_port);
        }
        if self.setup_only {
            return;
        }
        self.bytes_recv += encode_frame(msg).len() as u64;
        self.msgs_recv += 1;
        self.wake_productive = true;
        if let Msg::Done { .. } = msg {
            let now = trace::now_ns();
            if let Some(pos) = self
                .groups
                .iter()
                .rposition(|g| g.outstanding > 0 && g.members.contains(&conn))
            {
                let g = &mut self.groups[pos];
                g.outstanding -= 1;
                if g.outstanding == 0 {
                    let g = self.groups.remove(pos);
                    self.step_ns
                        .push(now.saturating_sub(g.dispatched_ns) as f64);
                }
            }
        }
    }

    /// Closes the open wakeup, counting it idle if it completed no frame.
    /// Called before every wait and once at the end of a run.
    pub fn close_wakeup(&mut self) {
        if self.wake_open && !self.wake_productive {
            self.idle_wakeups += 1;
        }
        self.wake_open = false;
    }
}

/// Every launch-to-Ready time `stats` holds, in seconds.
pub fn spawn_setup_s(stats: &Mutex<NetStats>) -> Vec<f64> {
    let st = stats.lock().expect("net stats poisoned");
    st.setup_ns.iter().map(|ns| ns / 1e9).collect()
}

/// Loopback TCP with the coordinator's side of every connection timed.
#[derive(Debug, Clone)]
pub struct TimedTcp {
    inner: Tcp,
    stats: Arc<Mutex<NetStats>>,
}

/// Connection ids, unique across every timed transport of the process.
static NEXT_CONN: AtomicU64 = AtomicU64::new(1);

impl TimedTcp {
    /// Loopback TCP recording into `stats`.
    pub fn new(stats: Arc<Mutex<NetStats>>) -> Self {
        TimedTcp {
            inner: Tcp::LOOPBACK,
            stats,
        }
    }

    fn wrap(&self, inner: pac_net::FramedConn, rdv_port: Option<u16>) -> TimedConn {
        TimedConn {
            inner,
            id: NEXT_CONN.fetch_add(1, Ordering::Relaxed),
            rdv_port,
            stats: self.stats.clone(),
        }
    }
}

/// One timed connection.
#[derive(Debug)]
pub struct TimedConn {
    inner: pac_net::FramedConn,
    id: u64,
    /// The listener port it was accepted on; `None` when dialed.
    rdv_port: Option<u16>,
    stats: Arc<Mutex<NetStats>>,
}

impl TimedConn {
    fn stats(&self) -> MutexGuard<'_, NetStats> {
        self.stats.lock().expect("net stats poisoned")
    }
}

impl Conn for TimedConn {
    fn send(&mut self, msg: &Msg) -> Result<(), NetError> {
        let out = self.inner.send(msg);
        if out.is_ok() {
            self.stats().on_send(self.id, msg);
        }
        out
    }

    fn recv(&mut self) -> Result<Msg, NetError> {
        let _span = trace::span("pac-net", "net.recv_wait");
        let t0 = Instant::now();
        let out = self.inner.recv();
        let ns = t0.elapsed().as_nanos() as u64;
        let mut st = self.stats();
        st.recv_wait_ns += ns;
        if let Ok(msg) = &out {
            st.on_recv(self.id, self.rdv_port, msg);
        }
        out
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.inner.set_timeout(timeout)
    }
}

impl PollConn for TimedConn {
    fn try_recv(&mut self) -> Result<Option<Msg>, NetError> {
        let out = self.inner.try_recv();
        if let Ok(Some(msg)) = &out {
            self.stats().on_recv(self.id, self.rdv_port, msg);
        }
        out
    }

    fn try_send(&mut self, msg: &Msg) -> Result<bool, NetError> {
        let out = self.inner.try_send(msg);
        if let Ok(true) = out {
            self.stats().on_send(self.id, msg);
        }
        out
    }
}

/// A listener handing out [`TimedConn`]s.
#[derive(Debug)]
pub struct TimedListener {
    inner: <Tcp as Transport>::Listener,
    transport: TimedTcp,
}

impl Listener for TimedListener {
    type Conn = TimedConn;

    fn port(&self) -> u16 {
        self.inner.port()
    }

    fn accept(&self, wait: Duration, conn_timeout: Duration) -> Result<TimedConn, NetError> {
        let conn = self.inner.accept(wait, conn_timeout)?;
        Ok(self.transport.wrap(conn, Some(self.inner.port())))
    }
}

impl Transport for TimedTcp {
    type Conn = TimedConn;
    type Listener = TimedListener;

    fn bind(&self) -> Result<TimedListener, NetError> {
        Ok(TimedListener {
            inner: self.inner.bind()?,
            transport: self.clone(),
        })
    }

    fn connect(&self, port: u16, timeout: Duration) -> Result<TimedConn, NetError> {
        let conn = self.inner.connect(port, timeout)?;
        Ok(self.wrap(conn, None))
    }
}

impl PollTransport for TimedTcp {
    fn wait_ready(
        &self,
        conns: &mut [&mut TimedConn],
        wait: Duration,
    ) -> Result<Readiness, NetError> {
        self.stats
            .lock()
            .expect("net stats poisoned")
            .close_wakeup();
        let mut inner: Vec<&mut pac_net::FramedConn> =
            conns.iter_mut().map(|c| &mut c.inner).collect();
        let out = self.inner.wait_ready(&mut inner, wait);
        let mut st = self.stats.lock().expect("net stats poisoned");
        st.wakeups += 1;
        st.wake_open = true;
        st.wake_productive = false;
        out
    }
}

/// Launches loopback-TCP thread workers exactly like
/// [`Spawner::Threads`], handing the coordinator a [`TimedTcp`].
#[derive(Debug, Clone)]
pub struct TimedSpawner {
    transport: TimedTcp,
}

impl TimedSpawner {
    /// A spawner whose coordinator side records into `stats`.
    pub fn new(stats: Arc<Mutex<NetStats>>) -> Self {
        TimedSpawner {
            transport: TimedTcp::new(stats),
        }
    }
}

impl Spawn for TimedSpawner {
    type T = TimedTcp;

    fn transport(&self) -> TimedTcp {
        self.transport.clone()
    }

    fn launch(&self, coord_port: u16, world: usize) -> std::io::Result<SpawnedWorld> {
        let _span = trace::span("pac-net", "net.launch");
        self.transport
            .stats
            .lock()
            .expect("net stats poisoned")
            .on_launch(coord_port, world);
        Spawner::Threads.launch(coord_port, world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_store::MemStore;

    #[test]
    fn timed_store_forwards_every_call_unchanged() {
        let stats = Arc::new(Mutex::new(StoreStats::default()));
        let mut plain = MemStore::new();
        let mut timed = TimedStore::new(MemStore::new(), stats.clone());
        let payload = vec![7u8; 9000];
        for meta in [&b"a"[..], b"bc"] {
            assert_eq!(
                plain.commit(&payload, meta).unwrap(),
                timed.commit(&payload, meta).unwrap()
            );
        }
        assert_eq!(plain.commits(), timed.commits());
        let (a, b) = (
            plain.latest().unwrap().unwrap(),
            timed.latest().unwrap().unwrap(),
        );
        assert_eq!((a.seq, a.payload, a.meta), (b.seq, b.payload, b.meta));
        let (a, b) = (
            plain.committed(0).unwrap().unwrap(),
            timed.committed(0).unwrap().unwrap(),
        );
        assert_eq!((a.seq, a.payload, a.meta), (b.seq, b.payload, b.meta));
        assert!(timed.committed(9).unwrap().is_none());
        assert_eq!(plain.dedup_stats(), timed.dedup_stats());
        let st = stats.lock().unwrap();
        assert_eq!(st.commit_ns.len(), 2);
        assert_eq!(st.read_ns.len(), 3);
        assert_eq!(st.bytes_written, 2 * 9000 + 3);
    }

    #[test]
    fn timed_transport_forwards_frames_unchanged() {
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let t = TimedTcp::new(stats.clone());
        let listener = t.bind().unwrap();
        let port = listener.port();
        let dialer = std::thread::spawn(move || {
            let mut c = Tcp::LOOPBACK.connect(port, Duration::from_secs(5)).unwrap();
            let got = c.recv().unwrap();
            c.send(&got).unwrap();
            c.send(&Msg::Ready).unwrap();
        });
        let mut conn = listener
            .accept(Duration::from_secs(5), Duration::from_secs(5))
            .unwrap();
        let step = Msg::Step {
            step: 3,
            die: false,
            stall_ms: 0,
            micro_batches: vec![(vec![vec![1, 2, 3]], vec![1])],
        };
        conn.send(&step).unwrap();
        let echoed = conn.recv().unwrap();
        assert_eq!(encode_frame(&echoed), encode_frame(&step));
        let ready = loop {
            if let Readiness::Conn(0) = t
                .wait_ready(&mut [&mut conn], Duration::from_secs(5))
                .unwrap()
            {
                if let Some(m) = conn.try_recv().unwrap() {
                    break m;
                }
            }
        };
        assert!(matches!(ready, Msg::Ready));
        dialer.join().unwrap();
        let mut st = stats.lock().unwrap();
        st.close_wakeup();
        assert_eq!((st.msgs_sent, st.msgs_recv), (1, 2));
        assert_eq!(st.bytes_sent, encode_frame(&step).len() as u64);
        assert!(st.wakeups >= 1);
    }

    #[test]
    fn timed_spawner_trains_bitwise_like_thread_workers() {
        use pac_net::{DistConfig, DistTrainer};
        use pac_parallel::FaultPlan;
        let batches = crate::dist::batches(5, 3, 2, 2, 6);
        let cfg = DistConfig::loopback(2, 2);
        let plain = DistTrainer::new(cfg.clone())
            .run(&Spawner::Threads, &batches, &FaultPlan::none())
            .unwrap();
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let timed = DistTrainer::new(cfg)
            .run(
                &TimedSpawner::new(stats.clone()),
                &batches,
                &FaultPlan::none(),
            )
            .unwrap();
        assert_eq!(
            crate::checks::bits(&plain.losses),
            crate::checks::bits(&timed.losses)
        );
        let st = stats.lock().unwrap();
        assert_eq!(st.step_ns.len(), 3, "one latency per lockstep step");
        assert_eq!(st.setup_ns.len(), 1, "one world launched and wired");
        assert!(st.recv_wait_ns > 0 && st.bytes_sent > 0 && st.bytes_recv > 0);

        let light = Arc::new(Mutex::new(NetStats::setup_only()));
        let timed = DistTrainer::new(DistConfig::loopback(2, 2))
            .run(
                &TimedSpawner::new(light.clone()),
                &batches,
                &FaultPlan::none(),
            )
            .unwrap();
        assert_eq!(
            crate::checks::bits(&plain.losses),
            crate::checks::bits(&timed.losses)
        );
        let st = light.lock().unwrap();
        assert_eq!(st.setup_ns.len(), 1, "set-up is still timed");
        assert!(st.step_ns.is_empty() && st.bytes_sent == 0 && st.bytes_recv == 0);
    }
}
