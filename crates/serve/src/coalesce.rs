//! The coalescing dequeue behind `/v1/classify` batching: collects
//! concurrent in-flight episodes with the same [`BatchKey`] and runs
//! them through one fused [`Engine::run_episodes_batched`] call.
//!
//! The shape is leader/follower. The first request to open a group
//! becomes its **leader**: it waits out the collect window (bounded by
//! the earliest member deadline — waiting for stragglers must never
//! expire a member that would have met its deadline solo), closes the
//! group, drops the lock, and runs the fused pass. **Followers** park on
//! a condvar until the leader fills their result slot. A member whose
//! deadline expires *during* collection is answered with a 504 whose
//! stage is `"batch_collect"` — it never poisons the batch; the
//! remaining members still run.
//!
//! Batch membership is invisible in results by construction
//! (per-datapoint RNG streams, row-local embedding — see
//! `gp_core::planner`): on `Backend::Reference` a fused member is
//! bit-identical to a solo run, proven end-to-end by
//! `batched_classify_matches_serial` in `tests/pipeline.rs`.
//!
//! Concurrency safety: every lock acquisition recovers from poisoning,
//! followers re-check their slot on a bounded wait so a lost wakeup
//! cannot strand them, and a leader panic (contained by `catch_unwind`)
//! fills every live slot with [`CoalesceOutcome::LeaderFailed`] so no
//! follower ever waits on a dead leader.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gp_core::{
    BatchKey, Deadline, DeadlineExceeded, Engine, EngineError, EpisodeRequest, EpisodeResult,
};
use gp_datasets::{Dataset, FewShotTask};

use crate::metrics::{BATCHES_TOTAL, BATCH_EXPIRED_TOTAL, BATCH_SIZE};

/// What one submission got back from the coalescer.
pub enum CoalesceOutcome {
    /// The member's episode ran (or expired at a stage boundary /
    /// during collection — the inner result says which).
    Done {
        /// The member's own result, exactly as a solo
        /// [`Engine::run_episode_deadline`] call would have returned it
        /// (boxed: an [`EpisodeResult`] is large and this enum travels
        /// by value).
        result: Box<Result<EpisodeResult, EngineError>>,
        /// Members the fused pass actually ran (collection-expired
        /// members excluded); `1` for a solo bypass.
        batch_size: usize,
    },
    /// The batch leader panicked mid-pass; the member's work was
    /// discarded. Maps to a 500 — the panic was contained and the
    /// server keeps serving.
    LeaderFailed,
}

/// One member's slot in a collecting group.
struct Slot {
    /// Present until the leader takes it at dispatch.
    task: Option<FewShotTask>,
    deadline: Deadline,
    outcome: Option<SlotOutcome>,
    /// The owning request has taken its outcome; a group is removed
    /// when every slot is collected.
    collected: bool,
}

enum SlotOutcome {
    Done(Box<Result<EpisodeResult, EngineError>>),
    LeaderFailed,
}

/// A batch being collected (open) or executed (closed).
struct Group {
    id: u64,
    key: BatchKey,
    open: bool,
    opened_at: Instant,
    /// Members the fused pass ran; set at dispatch.
    dispatched_size: usize,
    slots: Vec<Slot>,
}

struct State {
    groups: Vec<Group>,
    next_id: u64,
}

/// Groups concurrent classify episodes into fused batched-inference
/// calls. One instance lives in [`crate::app::ClassifyApp`]; worker
/// threads block inside [`Coalescer::submit`] for at most the collect
/// window plus the fused pass itself.
pub struct Coalescer {
    max_batch: usize,
    window: Duration,
    state: Mutex<State>,
    cv: Condvar,
}

impl Coalescer {
    /// A coalescer fusing at most `max_batch` members per batch,
    /// holding a new group open for at most `window`. `max_batch ≤ 1`
    /// disables coalescing entirely ([`Coalescer::submit`] becomes a
    /// plain solo call).
    pub fn new(max_batch: usize, window: Duration) -> Self {
        Self {
            max_batch: max_batch.max(1),
            window,
            state: Mutex::new(State {
                groups: Vec::new(),
                next_id: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The per-batch member cap.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Run `task` on `engine`, fused with any concurrent submissions
    /// sharing `key`. Blocks until this member's own result is ready.
    /// `deadline` is enforced both during collection (expiry → 504 at
    /// stage `"batch_collect"`) and at every stage boundary of the
    /// fused pass, exactly as in a solo run.
    #[expect(
        clippy::disallowed_methods,
        reason = "the coalescing window is wall-clock by design: it decides when a group closes, never what a member answers (batched runs are bit-identical to solo ones)"
    )]
    pub fn submit(
        &self,
        key: BatchKey,
        engine: &Engine,
        dataset: &Dataset,
        task: FewShotTask,
        deadline: Deadline,
    ) -> CoalesceOutcome {
        if self.max_batch <= 1 {
            return CoalesceOutcome::Done {
                result: Box::new(engine.run_episode_deadline(dataset, &task, deadline)),
                batch_size: 1,
            };
        }
        let mut st = self.lock();
        // Join the open group for this key, if one has capacity.
        let joinable = st
            .groups
            .iter()
            .position(|g| g.open && g.key == key && g.slots.len() < self.max_batch);
        if let Some(pos) = joinable {
            let gid = st.groups[pos].id;
            let slot = st.groups[pos].slots.len();
            st.groups[pos].slots.push(Slot {
                task: Some(task),
                deadline,
                outcome: None,
                collected: false,
            });
            if st.groups[pos].slots.len() >= self.max_batch {
                // Full house: close so the leader dispatches now
                // instead of waiting out the rest of the window.
                st.groups[pos].open = false;
            }
            // Wake the leader either way — a joiner with a tighter
            // deadline shrinks the collect window, and the leader must
            // re-derive it.
            self.cv.notify_all();
            return self.collect(st, gid, slot);
        }
        // No open group: this request leads a new one.
        let gid = st.next_id;
        st.next_id += 1;
        st.groups.push(Group {
            id: gid,
            key,
            open: true,
            opened_at: Instant::now(),
            dispatched_size: 0,
            slots: vec![Slot {
                task: Some(task),
                deadline,
                outcome: None,
                collected: false,
            }],
        });
        self.lead(st, gid, engine, dataset)
    }

    /// Leader path: wait out the collect window, dispatch the fused
    /// pass, fill every slot, then collect slot 0 (the leader's own).
    #[expect(
        clippy::disallowed_methods,
        reason = "the coalescing window is wall-clock by design: it decides when a group closes, never what a member answers (batched runs are bit-identical to solo ones)"
    )]
    fn lead<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        gid: u64,
        engine: &Engine,
        dataset: &Dataset,
    ) -> CoalesceOutcome {
        // --- collect window: until full, window elapsed, or the
        // earliest member deadline arrives (gp_core::batch_deadline's
        // contract, inlined over live slots).
        loop {
            let Some(g) = st.groups.iter().find(|g| g.id == gid) else {
                return CoalesceOutcome::LeaderFailed;
            };
            if !g.open || g.slots.len() >= self.max_batch {
                break;
            }
            let earliest = g.slots.iter().map(|s| s.deadline.instant()).min();
            let mut close_by = g.opened_at + self.window;
            if let Some(d) = earliest {
                close_by = close_by.min(d);
            }
            let now = Instant::now();
            if now >= close_by {
                break;
            }
            st = self.wait(st, close_by - now);
        }

        // --- close and take the members.
        let (members, collect_micros) = {
            let Some(g) = st.groups.iter_mut().find(|g| g.id == gid) else {
                return CoalesceOutcome::LeaderFailed;
            };
            g.open = false;
            let collect_micros = g.opened_at.elapsed().as_micros() as u64;
            let members: Vec<(usize, FewShotTask, Deadline)> = g
                .slots
                .iter_mut()
                .enumerate()
                .filter_map(|(i, s)| s.task.take().map(|t| (i, t, s.deadline)))
                .collect();
            (members, collect_micros)
        };
        drop(st);

        // --- a member that expired while we collected is 504'd here,
        // without poisoning the batch for the rest.
        let mut expired: Vec<(usize, usize)> = Vec::new();
        let mut live: Vec<(usize, FewShotTask, Deadline)> = Vec::new();
        for (i, task, deadline) in members {
            if deadline.expired() {
                expired.push((i, task.queries.len()));
            } else {
                live.push((i, task, deadline));
            }
        }
        BATCHES_TOTAL.inc();
        BATCH_SIZE.record(live.len() as u64);
        for _ in &expired {
            BATCH_EXPIRED_TOTAL.inc();
        }

        // --- the fused pass, panic-contained so followers never wait
        // on a dead leader.
        let requests: Vec<EpisodeRequest<'_>> = live
            .iter()
            .map(|(_, task, deadline)| EpisodeRequest {
                task,
                deadline: Some(*deadline),
            })
            .collect();
        let ran = if requests.is_empty() {
            Ok(Vec::new())
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                engine.run_episodes_batched(dataset, &requests)
            }))
        };
        drop(requests);

        // --- fill every slot and wake the followers.
        let mut st = self.lock();
        {
            let Some(g) = st.groups.iter_mut().find(|g| g.id == gid) else {
                return CoalesceOutcome::LeaderFailed;
            };
            g.dispatched_size = live.len();
            match ran {
                Ok(results) => {
                    for ((i, _, _), result) in live.iter().zip(results) {
                        g.slots[*i].outcome = Some(SlotOutcome::Done(Box::new(result)));
                    }
                }
                Err(_) => {
                    for (i, _, _) in &live {
                        g.slots[*i].outcome = Some(SlotOutcome::LeaderFailed);
                    }
                }
            }
            for (i, total_queries) in &expired {
                g.slots[*i].outcome = Some(SlotOutcome::Done(Box::new(Err(
                    EngineError::DeadlineExceeded(DeadlineExceeded {
                        stage: "batch_collect",
                        completed_queries: 0,
                        total_queries: *total_queries,
                        stage_micros: vec![("batch_collect", collect_micros)],
                    }),
                ))));
            }
        }
        self.cv.notify_all();
        self.collect(st, gid, 0)
    }

    /// Wait for slot `slot` of group `gid` to be filled, take its
    /// outcome, and retire the group once every member has collected.
    fn collect<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        gid: u64,
        slot: usize,
    ) -> CoalesceOutcome {
        loop {
            let Some(pos) = st.groups.iter().position(|g| g.id == gid) else {
                // Groups are only removed after every slot is collected,
                // and ours is not — unreachable, but fail safe (500)
                // rather than wait forever.
                return CoalesceOutcome::LeaderFailed;
            };
            if st.groups[pos].slots[slot].outcome.is_some() {
                let g = &mut st.groups[pos];
                let batch_size = g.dispatched_size;
                let out = g.slots[slot].outcome.take();
                g.slots[slot].collected = true;
                if g.slots.iter().all(|s| s.collected) {
                    st.groups.retain(|g| g.id != gid);
                }
                return match out {
                    Some(SlotOutcome::Done(result)) => CoalesceOutcome::Done { result, batch_size },
                    Some(SlotOutcome::LeaderFailed) | None => CoalesceOutcome::LeaderFailed,
                };
            }
            // Bounded wait: a spurious or lost wakeup costs one re-check
            // interval, never a hang.
            st = self.wait(st, Duration::from_millis(50));
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&'a self, guard: MutexGuard<'a, State>, dur: Duration) -> MutexGuard<'a, State> {
        self.cv
            .wait_timeout(guard, dur)
            .map(|(g, _)| g)
            .unwrap_or_else(|e| e.into_inner().0)
    }
}
