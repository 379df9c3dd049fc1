//! The one announce/listen engine behind the §3–§5 protocol variants.
//!
//! The paper builds §4 as §3 plus a second queue and §5 as §4 plus NACK
//! feedback; this engine has that shape. One simulator, parametrised by
//! its [`QueueSet`] and the §4 [`Sharing`] mode, serves all three
//! variants: the single cycling queue of [`super::open_loop`], the
//! hot/cold queues of [`super::two_queue`], and the hot/cold/feedback
//! queues of [`super::feedback`]. Those modules map their configs onto
//! it and read their reports back from its counters.
//!
//! Every data service ends through [`classify_service`]. Random streams
//! are derived by name from the seed, so a stream a variant never draws
//! from leaves the others untouched; service times come from one
//! `service` stream in the order hot, cold, feedback.

use super::feedback::FeedbackConfig;
use super::jobs::{JobStats, LiveJobs};
use super::machine::{classify_service, should_nack, should_promote, Loc};
use super::two_queue::Sharing;
use super::TransitionCounts;
use crate::workload::ArrivalProcess;
use ss_netsim::metrics::{AverageId, CounterId, EventKind, EventLog, MetricsSnapshot, QueueClass};
use ss_netsim::trace::{Actor, TraceId, TraceKind, Tracer};
use ss_netsim::{
    run_until, run_until_traced, EventQueue, FaultSchedule, FaultSpec, Handle, LossModel,
    SimDuration, SimRng, SimTime, TracedWorld, World,
};
use ss_sched::{Metered, Scheduler};
use std::collections::VecDeque;

/// Which transmission queues the sender runs. The engine is compiled
/// once per queue set, so a run pays no per-event variant branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum QueueSet {
    /// §3: one cycling queue served at `mu_hot`.
    Single,
    /// §4: hot and cold queues.
    HotCold,
    /// §5: hot and cold queues plus the NACK feedback channel.
    Feedback,
}

const SINGLE: u8 = QueueSet::Single as u8;
const HOT_COLD: u8 = QueueSet::HotCold as u8;
const FEEDBACK: u8 = QueueSet::Feedback as u8;

/// The server that carried a data announcement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lane {
    /// The single queue's server: survivors rejoin the same queue.
    Cycle,
    /// The hot server: survivors are demoted to the cold queue.
    Hot,
    /// The cold server: survivors rejoin the cold queue's tail.
    Cold,
}

enum Ev {
    Arrival,
    Done(Handle, Lane),
    FbDone(Handle),
    /// Lifetime-based expiry (only under `DeathProcess::Lifetime`).
    /// Carries the record's generational handle: stale after death.
    LifetimeEnd(Handle),
    /// A fault-episode boundary (only scheduled with a non-empty
    /// [`FaultSpec`]): crash wipes apply here.
    FaultEdge,
}

/// Per-record protocol state, stored inline in the record's arena slot,
/// so it dies with the record when the slot is reclaimed.
#[derive(Clone, Copy, Debug, Default)]
struct Job {
    /// Sender-side location; a queue entry whose record moved on (or
    /// died — a stale handle reads as no location) is skipped at pop.
    loc: Loc,
    /// A NACK is queued or in flight (receiver-side dedup).
    nack_pending: bool,
    /// Trace id of the pending NACK, so a later promotion can parent
    /// under the NACK that caused it ([`TraceId::NONE`] when absent).
    nack_id: TraceId,
    /// Trace id of the latest promotion, so the promoted hot
    /// retransmission parents under it (NACK → promote → retransmit).
    promoted: TraceId,
    /// Lifetime ended mid-service; killed at completion.
    doomed: bool,
}

/// The finished run: the shared measurements plus the two outputs that
/// are not metrics.
pub(crate) struct Run {
    pub(crate) stats: JobStats,
    pub(crate) metrics: MetricsSnapshot,
    pub(crate) events: EventLog,
    pub(crate) trace: Tracer,
    /// Table 1 transitions tallied over every service and lifetime death.
    pub(crate) transitions: TransitionCounts,
    /// Hot-queue (or single-queue) length at the end of the run.
    pub(crate) final_hot_backlog: usize,
}

impl Run {
    /// Fraction of the `tx` data announcements that were lost.
    pub(crate) fn loss_rate(&self, tx: u64) -> f64 {
        if tx == 0 {
            0.0
        } else {
            self.metrics.counter("tx.lost") as f64 / tx as f64
        }
    }
}

const HOT: usize = 0;
const COLD: usize = 1;
const FB: usize = 2;

/// The engine for queue set `Q` (a [`QueueSet`] as `u8`). Its per-event
/// helpers are forced inline: under the release profile's fat LTO the
/// engine otherwise measured a few percent below the per-variant
/// simulators it replaced on the `sim-announce` benchmark.
struct Sim<const Q: u8> {
    cfg: FeedbackConfig,
    /// The single queue is kept in `hot`.
    hot: VecDeque<Handle>,
    cold: VecDeque<Handle>,
    fbq: VecDeque<Handle>,
    /// Busy servers, indexed `HOT`, `COLD`, `FB`. A work-conserving data
    /// server uses only `busy[HOT]`.
    busy: [bool; 3],
    sched: Option<Metered<Box<dyn Scheduler>>>,
    jobs: LiveJobs<Job>,
    loss: Box<dyn LossModel>,
    nack_loss: Box<dyn LossModel>,
    faults: FaultSchedule,
    transitions: TransitionCounts,
    next_id: u64,
    /// Announcement counters by server (`tx.total` twice for `Single`).
    c_tx: [CounterId; 2],
    c_redundant: CounterId,
    c_lost: CounterId,
    c_fault_lost: CounterId,
    /// `nack.generated`, `nack.delivered`, `nack.promotions`; without
    /// feedback they are never reached and alias `tx.lost`.
    c_nack: [CounterId; 3],
    a_hot_backlog: Option<AverageId>,
    a_fb_backlog: Option<AverageId>,
    rng_arrival: SimRng,
    rng_service: SimRng,
    rng_loss: SimRng,
    rng_death: SimRng,
    rng_sched: SimRng,
    rng_nack_loss: SimRng,
    rng_update: SimRng,
}

/// Drops the entries at the head of `queue` whose record left `want`.
fn purge_head(queue: &mut VecDeque<Handle>, jobs: &LiveJobs<Job>, want: Loc) {
    while let Some(&h) = queue.front() {
        if jobs.extra(h).map(|x| x.loc) == Some(want) {
            break;
        }
        queue.pop_front();
    }
}

/// Pops the next entry of `queue` whose record still sits at `want`, and
/// marks that record as on the wire.
#[inline(always)]
fn pop_valid(queue: &mut VecDeque<Handle>, jobs: &mut LiveJobs<Job>, want: Loc) -> Option<Handle> {
    while let Some(h) = queue.pop_front() {
        if let Some(x) = jobs.extra_mut(h).filter(|x| x.loc == want) {
            x.loc = Loc::Serving;
            return Some(h);
        }
    }
    None
}

impl<const Q: u8> Sim<Q> {
    fn new(cfg: &FeedbackConfig, sharing: Sharing, faults: &FaultSpec) -> Self {
        let root = SimRng::new(cfg.seed);
        let sched = match sharing {
            Sharing::Partitioned => None,
            Sharing::WorkConserving(policy) => {
                // Small integer weights (granularity 1/20 of the total)
                // keep round-robin policies like DRR from serving enormous
                // bursts per class visit.
                let total = cfg.mu_hot + cfg.mu_cold;
                let w = |mu: f64| -> u64 {
                    if mu <= 0.0 {
                        0
                    } else {
                        ((mu / total * 20.0).round() as u64).max(1)
                    }
                };
                let mut s = Metered::new(policy.build());
                s.set_weight(HOT, w(cfg.mu_hot));
                s.set_weight(COLD, w(cfg.mu_cold));
                Some(s)
            }
        };
        let mut jobs = LiveJobs::new(
            SimTime::ZERO,
            cfg.series_spacing,
            cfg.event_capacity,
            cfg.trace_capacity,
        );
        let m = jobs.metrics();
        let c_tx = if Q == SINGLE {
            [m.counter("tx.total"); 2]
        } else {
            [m.counter("tx.hot"), m.counter("tx.cold")]
        };
        let c_redundant = m.counter("tx.redundant");
        let c_lost = m.counter("tx.lost");
        let c_nack = if Q == FEEDBACK {
            ["nack.generated", "nack.delivered", "nack.promotions"].map(|n| m.counter(n))
        } else {
            [c_lost; 3]
        };
        let c_fault_lost = m.counter("faults.drops");
        let mut average = |on: bool, name: &str| {
            on.then(|| m.time_average(name, SimTime::ZERO, 0.0, SimDuration::ZERO))
        };
        let a_hot_backlog = average(Q != SINGLE, "queue.hot.backlog");
        let a_fb_backlog = average(Q == FEEDBACK, "queue.fb.backlog");
        Sim {
            hot: VecDeque::new(),
            cold: VecDeque::new(),
            fbq: VecDeque::new(),
            busy: [false; 3],
            sched,
            loss: cfg.loss.build_batched(),
            nack_loss: cfg.nack_loss.unwrap_or(cfg.loss).build_batched(),
            // The schedule draws from its own derived stream, so an empty
            // spec consumes nothing and every other stream is unperturbed.
            faults: faults.build(root.derive("faults")),
            transitions: TransitionCounts::default(),
            next_id: 0,
            c_tx,
            c_redundant,
            c_lost,
            c_fault_lost,
            c_nack,
            a_hot_backlog,
            a_fb_backlog,
            jobs,
            rng_arrival: root.derive("arrival"),
            rng_service: root.derive("service"),
            rng_loss: root.derive("loss"),
            rng_death: root.derive("death"),
            rng_sched: root.derive("sched"),
            rng_nack_loss: root.derive("nack-loss"),
            rng_update: root.derive("update"),
            cfg: cfg.clone(),
        }
    }

    #[inline(always)]
    fn note_backlogs(&mut self, now: SimTime) {
        let (hot, fb) = (self.hot.len() as f64, self.fbq.len() as f64);
        let m = self.jobs.metrics();
        if let Some(a) = self.a_hot_backlog.filter(|_| Q != SINGLE) {
            m.record_sample(a, now, hot);
        }
        if let Some(a) = self.a_fb_backlog.filter(|_| Q == FEEDBACK) {
            m.record_sample(a, now, fb);
        }
    }

    fn spawn_record(&mut self, q: &mut EventQueue<Ev>) {
        let id = self.next_id;
        self.next_id += 1;
        let h = self.jobs.arrive(q.now(), id, Job::default());
        if let Some(life) = self.cfg.death.lifetime(&mut self.rng_death) {
            q.schedule_in(life, Ev::LifetimeEnd(h));
        }
        self.hot.push_back(h);
        self.note_backlogs(q.now());
        self.kick(q);
    }

    /// The server index a lane occupies.
    #[inline(always)]
    fn server(&self, lane: Lane) -> usize {
        usize::from(lane == Lane::Cold && self.sched.is_none()) // COLD or HOT
    }

    /// Puts `h` on the wire at rate `mu`. A bandwidth-degradation episode
    /// stretches the data channel's service times.
    #[inline(always)]
    fn start(&mut self, q: &mut EventQueue<Ev>, h: Handle, lane: Lane, mu: f64) {
        self.busy[self.server(lane)] = true;
        let mut st = self.cfg.service.service_time(mu, &mut self.rng_service);
        let factor = self.faults.bandwidth_factor(q.now());
        if factor < 1.0 {
            st = SimDuration::from_micros((st.as_micros() as f64 / factor).round() as u64);
        }
        q.schedule_in(st, Ev::Done(h, lane));
        if lane != Lane::Cold {
            self.note_backlogs(q.now());
        }
    }

    /// Starts every service the idle servers can take.
    #[inline(always)]
    fn kick(&mut self, q: &mut EventQueue<Ev>) {
        if Q == HOT_COLD && self.sched.is_some() {
            self.kick_shared(q);
        } else {
            if !self.busy[HOT] && self.cfg.mu_hot > 0.0 {
                if let Some(h) = pop_valid(&mut self.hot, &mut self.jobs, Loc::Hot) {
                    let lane = if Q == SINGLE { Lane::Cycle } else { Lane::Hot };
                    self.start(q, h, lane, self.cfg.mu_hot);
                }
            }
            if Q != SINGLE && !self.busy[COLD] && self.cfg.mu_cold > 0.0 {
                if let Some(h) = pop_valid(&mut self.cold, &mut self.jobs, Loc::Cold) {
                    self.start(q, h, Lane::Cold, self.cfg.mu_cold);
                }
            }
        }
        let mu_fb = self.cfg.mu_fb;
        if Q == FEEDBACK && !self.busy[FB] && mu_fb > 0.0 {
            if let Some(h) = self.fbq.pop_front() {
                self.busy[FB] = true;
                let st = self.cfg.service.service_time(mu_fb, &mut self.rng_service);
                q.schedule_in(st, Ev::FbDone(h));
                self.note_backlogs(q.now());
            }
        }
    }

    /// Work-conserving sharing: one server at `μ_hot + μ_cold`, the
    /// queue picked per packet by the proportional-share policy.
    fn kick_shared(&mut self, q: &mut EventQueue<Ev>) {
        let mu_data = self.cfg.mu_hot + self.cfg.mu_cold;
        if self.busy[HOT] || mu_data <= 0.0 {
            return;
        }
        // Purge stale heads first so backlog flags are truthful.
        purge_head(&mut self.hot, &self.jobs, Loc::Hot);
        purge_head(&mut self.cold, &self.jobs, Loc::Cold);
        let sched = self.sched.as_mut().expect("work-conserving scheduler");
        sched.set_backlogged(HOT, !self.hot.is_empty());
        sched.set_backlogged(COLD, !self.cold.is_empty());
        let Some(class) = sched.pick_traced(q.now(), &mut self.rng_sched, self.jobs.tracer())
        else {
            return;
        };
        sched.charge(class, 1);
        let (queue, loc, lane) = if class == HOT {
            (&mut self.hot, Loc::Hot, Lane::Hot)
        } else {
            (&mut self.cold, Loc::Cold, Lane::Cold)
        };
        let h = pop_valid(queue, &mut self.jobs, loc).expect("backlog flag stale");
        self.start(q, h, lane, mu_data);
    }

    /// The completion of one data announcement: the Table 1 transition,
    /// then the survivor's next queue (and, with feedback, its NACK).
    #[inline(always)]
    fn complete(&mut self, q: &mut EventQueue<Ev>, h: Handle, lane: Lane) {
        let now = q.now();
        let (id, was_consistent, x) = self.jobs.job_mut(h).expect("serving record is live");
        debug_assert_eq!(x.loc, Loc::Serving);
        // Figure 7: a transmission lands a survivor in Cold; the single
        // queue cycles it back to its own tail.
        x.loc = if Q == SINGLE { Loc::Hot } else { Loc::Cold };
        // A promoted record retransmits *because of* the promotion: parent
        // under it, completing loss → NACK → promote → retransmit.
        let promo = std::mem::take(&mut x.promoted);
        let job = *x;
        let (class, actor) = if lane == Lane::Cold {
            (QueueClass::Cold, Actor::ColdServer)
        } else {
            (QueueClass::Hot, Actor::HotServer)
        };
        let c_tx = self.c_tx[usize::from(lane == Lane::Cold)];
        self.jobs.metrics().inc(c_tx);
        self.jobs.events().log(now, EventKind::Announce(class), id);
        let tracer = self.jobs.tracer();
        let tx_id = if promo.is_some() {
            tracer.instant_under(now, actor, TraceKind::Announce, id, promo)
        } else {
            tracer.instant(now, actor, TraceKind::Announce, id)
        };
        if was_consistent {
            self.jobs.metrics().inc(self.c_redundant);
        }
        // The baseline channel draw always happens (the stream must not
        // depend on the fault schedule); fault checks layer on top.
        let chan_lost = self.loss.is_lost(&mut self.rng_loss);
        let fault_lost = self.faults.sender_silent(now)
            || self.faults.data_blocked(now)
            || self.faults.receiver_down(now, 0)
            || self.faults.extra_loss(now);
        let lost = chan_lost || fault_lost;
        let mut drop_id = TraceId::NONE;
        if lost {
            self.jobs.metrics().inc(self.c_lost);
            self.jobs.events().log(now, EventKind::Drop, id);
            drop_id = if fault_lost && !chan_lost {
                self.jobs.metrics().inc(self.c_fault_lost);
                let t = self.jobs.tracer();
                t.instant_labeled(now, Actor::Channel, TraceKind::Drop, id, tx_id, "fault")
            } else {
                let t = self.jobs.tracer();
                t.instant_under(now, Actor::Channel, TraceKind::Drop, id, tx_id)
            };
        }
        let dies = self.cfg.death.dies_after_service(&mut self.rng_death) || job.doomed;
        let outcome = classify_service(was_consistent, lost, dies);
        self.transitions.record(outcome.transition);
        if outcome.delivers {
            self.jobs.deliver(now, h, tx_id);
        }
        if !outcome.survives {
            self.jobs.kill(now, h);
            return;
        }
        if Q == FEEDBACK && outcome.delivers && (job.nack_pending || job.nack_id.is_some()) {
            let x = self.jobs.extra_mut(h).expect("delivered record is live");
            x.nack_pending = false;
            x.nack_id = TraceId::NONE;
        }
        if Q == SINGLE {
            self.hot.push_back(h);
            return;
        }
        if Q == HOT_COLD && lane == Lane::Hot {
            self.jobs.events().log(now, EventKind::Demote, id);
            let t = self.jobs.tracer();
            t.instant(now, Actor::ColdServer, TraceKind::Demote, id);
        }
        self.cold.push_back(h);
        // Receiver-side loss detection: NACK a missed record once. A loss
        // caused by a fault episode is invisible to the receiver (it is
        // partitioned or down), so no NACK — the cold cycle recovers it.
        let fb = Q == FEEDBACK && self.cfg.mu_fb > 0.0;
        if should_nack(chan_lost, fault_lost, was_consistent, fb, job.nack_pending) {
            self.fbq.push_back(h);
            self.jobs.metrics().inc(self.c_nack[0]);
            self.jobs.events().log(now, EventKind::Nack, id);
            // The NACK is caused by observing the loss.
            let t = self.jobs.tracer();
            let nid = t.instant_under(now, Actor::Feedback(0), TraceKind::Nack, id, drop_id);
            let x = self.jobs.extra_mut(h).expect("NACKed record is live");
            x.nack_pending = true;
            x.nack_id = nid;
            self.note_backlogs(now);
        }
    }

    /// A NACK reached (or was lost on its way to) the sender.
    fn feedback_done(&mut self, q: &mut EventQueue<Ev>, h: Handle) {
        let now = q.now();
        // Baseline draw first; the feedback direction is blocked by
        // feedback partitions and by a down receiver (which cannot have
        // sent the NACK).
        let chan_lost = self.nack_loss.is_lost(&mut self.rng_nack_loss);
        let fault_lost = self.faults.feedback_blocked(now) || self.faults.receiver_down(now, 0);
        if fault_lost && !chan_lost {
            self.jobs.metrics().inc(self.c_fault_lost);
        }
        // A stale handle means the record died with its NACK in flight;
        // the NACK still consumed feedback bandwidth and its draw.
        let nid = self.jobs.extra_mut(h).map_or(TraceId::NONE, |x| {
            x.nack_pending = false;
            std::mem::take(&mut x.nack_id)
        });
        if chan_lost || fault_lost {
            return;
        }
        self.jobs.metrics().inc(self.c_nack[1]);
        let live = self.jobs.contains(h);
        let consistent = live && self.jobs.is_consistent(h);
        if should_promote(self.jobs.extra(h).map(|x| x.loc), live, consistent) {
            let id = self.jobs.id_of(h);
            self.hot.push_back(h);
            self.jobs.metrics().inc(self.c_nack[2]);
            self.jobs.events().log(now, EventKind::Promote, id);
            // Promotion is the sender acting on the NACK.
            let t = self.jobs.tracer();
            let pid = t.instant_under(now, Actor::HotServer, TraceKind::Promote, id, nid);
            let x = self.jobs.extra_mut(h).expect("promoted record is live");
            x.loc = Loc::Hot;
            x.promoted = pid;
            self.note_backlogs(now);
        }
    }

    /// An arrival: a new record, or — once an update workload's keyspace
    /// is full — an in-place update of a random live record. The stale
    /// record keeps its queue position, except under feedback, where an
    /// update is new data and a cold record is promoted to hot.
    fn handle_arrival(&mut self, q: &mut EventQueue<Ev>) {
        if let ArrivalProcess::PoissonUpdates { keys, .. } = self.cfg.arrivals {
            if self.jobs.len() as u64 >= keys {
                if let Some(h) = self.jobs.random_live(&mut self.rng_update) {
                    self.jobs.invalidate(q.now(), h);
                    let x = self.jobs.extra_mut(h).expect("picked record is live");
                    if Q == FEEDBACK && x.loc == Loc::Cold {
                        x.loc = Loc::Hot;
                        self.hot.push_back(h);
                        self.note_backlogs(q.now());
                        self.kick(q);
                    }
                }
                return;
            }
        }
        self.spawn_record(q);
    }

    fn schedule_next_arrival(&mut self, q: &mut EventQueue<Ev>) {
        if let Some(dt) = self.cfg.arrivals.next_interarrival(&mut self.rng_arrival) {
            q.schedule_in(dt, Ev::Arrival);
        }
    }
}

impl<const Q: u8> World for Sim<Q> {
    type Event = Ev;

    fn handle(&mut self, q: &mut EventQueue<Ev>, ev: Ev) {
        match ev {
            Ev::Arrival => {
                self.handle_arrival(q);
                self.schedule_next_arrival(q);
            }
            Ev::Done(h, lane) => {
                self.busy[self.server(lane)] = false;
                self.complete(q, h, lane);
                self.kick(q);
            }
            Ev::FbDone(h) => {
                self.busy[FB] = false;
                self.feedback_done(q, h);
                self.kick(q);
            }
            Ev::LifetimeEnd(h) => {
                if let Some(x) = self.jobs.extra_mut(h) {
                    if x.loc == Loc::Serving {
                        x.doomed = true;
                    } else if self.jobs.kill(q.now(), h) {
                        // Waiting in a queue: the entry is skipped at pop.
                        self.transitions.c_death += 1;
                    } else {
                        self.transitions.i_death += 1;
                    }
                }
            }
            Ev::FaultEdge => {
                // A receiver crash beginning now wipes the replica: every
                // consistent record is stale again, and the crashed
                // receiver forgets its outstanding NACK state.
                if !self.faults.crashes_at(q.now()).is_empty() {
                    self.jobs.wipe(q.now());
                    self.jobs.for_each_extra_mut(|x| {
                        x.nack_pending = false;
                        x.nack_id = TraceId::NONE;
                    });
                }
            }
        }
    }
}

impl<const Q: u8> TracedWorld for Sim<Q> {
    fn tracer(&mut self) -> &mut Tracer {
        self.jobs.tracer()
    }

    fn event_label(ev: &Ev) -> &'static str {
        match ev {
            Ev::Arrival => "arrival",
            Ev::Done(_, Lane::Cycle) => "service-done",
            Ev::Done(_, Lane::Hot) => "hot-done",
            Ev::Done(_, Lane::Cold) => "cold-done",
            Ev::FbDone(_) => "fb-done",
            Ev::LifetimeEnd(_) => "lifetime-end",
            Ev::FaultEdge => "fault-edge",
        }
    }
}

std::thread_local! {
    /// Recycled event-queue allocation: sweep workers run many points
    /// back-to-back, and a cleared queue is indistinguishable from a
    /// fresh one (see `EventQueue::clear`), so reuse only saves the
    /// re-growth of the heap.
    static QUEUE_POOL: std::cell::RefCell<EventQueue<Ev>> =
        std::cell::RefCell::new(EventQueue::with_capacity(256));
}

/// Runs one announce/listen simulation under a fault schedule. The empty
/// spec consumes no randomness and blocks nothing.
pub(crate) fn run(
    cfg: &FeedbackConfig,
    queues: QueueSet,
    sharing: Sharing,
    faults: &FaultSpec,
) -> Run {
    match queues {
        QueueSet::Single => drive::<SINGLE>(cfg, sharing, faults),
        QueueSet::HotCold => drive::<HOT_COLD>(cfg, sharing, faults),
        QueueSet::Feedback => drive::<FEEDBACK>(cfg, sharing, faults),
    }
}

fn drive<const Q: u8>(cfg: &FeedbackConfig, sharing: Sharing, faults: &FaultSpec) -> Run {
    let mut sim = Sim::<Q>::new(cfg, sharing, faults);
    let mut q: EventQueue<Ev> = QUEUE_POOL.with(|c| std::mem::take(&mut *c.borrow_mut()));
    let end = SimTime::ZERO + cfg.duration;

    if sim.jobs.tracer().is_enabled() {
        let Sim { faults, jobs, .. } = &mut sim;
        faults.record_spans(jobs.tracer());
    }
    for t in sim.faults.boundaries() {
        if t < end {
            q.schedule(t, Ev::FaultEdge);
        }
    }
    for _ in 0..cfg.arrivals.initial_count() {
        sim.spawn_record(&mut q);
    }
    sim.schedule_next_arrival(&mut q);

    // Observation consumes no randomness, so the traced and profiled
    // loops replay the plain run exactly; the branch keeps the common
    // path zero-cost.
    if ss_netsim::profile::is_enabled() {
        ss_netsim::run_until_profiled(&mut sim, &mut q, end);
        ss_netsim::profile::flush();
    } else if sim.jobs.tracer().is_enabled() {
        run_until_traced(&mut sim, &mut q, end);
    } else {
        run_until(&mut sim, &mut q, end);
    }

    let m = sim.jobs.metrics();
    if let Some(sched) = sim.sched.take() {
        sched.export_into(m, "sched");
    }
    let c = m.counter("engine.events_dispatched");
    m.add(c, q.dispatched());
    let c = m.counter("engine.events_scheduled");
    m.add(c, q.scheduled());
    let (stats, metrics, events, trace) = sim.jobs.finish(end);
    q.clear();
    QUEUE_POOL.with(|c| *c.borrow_mut() = q);
    Run {
        stats,
        metrics,
        events,
        trace,
        transitions: sim.transitions,
        final_hot_backlog: sim.hot.len(),
    }
}
