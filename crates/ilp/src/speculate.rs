//! Speculative siblings: the next open node's propagation and warm LP on a
//! helper thread while the search works on the popped node.
//!
//! A depth-first search pops the deepest open node, and once that node's
//! subtree closes it pops the node below it on the stack — most often the
//! popped node's deferred sibling. The first work of that node's pop, the
//! propagation of its branching and the warm dual re-solve of its LP from
//! the parent basis, depends only on its box, the parent basis and the
//! rows. [`Speculation`] hands it to a helper thread as a [`Task`]; when the
//! search pops the node and the rows are still the ones the task read, it
//! takes the helper's [`NodeWork`] instead of computing the same bits again,
//! and counts it exactly as its own. A node whose task was never handed
//! out, was not started yet, or read rows a cut round has since extended,
//! does its own work.
//!
//! * The helper starts with the first task and is joined before the solve
//!   returns ([`Speculation::finish`], or the drop on an early exit).
//! * At most [`QUEUE_DEPTH`] tasks wait to be started. The helper starts
//!   the newest, the deepest node, which the search pops first, and a new
//!   task pushes the oldest waiting one out. A finished task's work waits
//!   for its node's pop, for at most [`KEPT`] nodes at a time: a newer
//!   task drops the oldest, whose node is handed out again when it comes
//!   next, or does its own work.
//! * Nothing the helper writes is allocated on its thread. The searching
//!   thread allocates the helper's propagation worklist once, when it
//!   starts the helper, and with each task the box copy, the kernel's
//!   vectors and the result vectors. A vector that must grow (an eta file,
//!   the worklist after a cut round) is reallocated in the allocator arena
//!   it came from, so the helper's own arena holds only what std's thread
//!   start-up allocates. A task's kernel vectors are dropped when it ends,
//!   so between tasks the helper holds only the worklist.
//! * A panic inside a task is caught on the helper and re-raised on the
//!   searching thread, when the search collects that task or at the end.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::propagate::{Domains, PropagationResult, Propagator, Worklist};
use crate::simplex::{Basis, KernelBuffers, SolutionVectors};
use crate::solver::{warm_attempt, WarmAttempt};

/// Tasks that may wait for the helper to start them.
const QUEUE_DEPTH: usize = 2;

/// Handed-out nodes whose work the search keeps for their pop. A dive hands
/// out one sibling per level and pops them back deepest first, so past
/// this many the oldest ticket, whose node is popped last, is dropped with
/// its work: a finished task holds a box, an LP point and a basis until
/// its node's pop, and a dive 36 levels deep would hold 36 of them.
const KEPT: usize = 8;

#[cfg(test)]
thread_local! {
    /// What the speculation of the solves on this searching thread did,
    /// for the tests.
    pub(crate) static TALLY: std::cell::Cell<Tally> = const {
        std::cell::Cell::new(Tally { started: 0, joined: 0, taken: 0, stale: 0 })
    };
}

/// See [`TALLY`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    /// Helpers started.
    pub(crate) started: u64,
    /// Helpers joined.
    pub(crate) joined: u64,
    /// Work taken from the helper.
    pub(crate) taken: u64,
    /// Tasks whose rows a cut round extended before their node's pop.
    pub(crate) stale: u64,
}

/// Adds to this thread's [`TALLY`].
#[cfg(test)]
fn tally(add: impl FnOnce(&mut Tally)) {
    let mut now = TALLY.get();
    add(&mut now);
    TALLY.set(now);
}

/// A node's first work, as its own pop computes it.
pub(crate) enum NodeWork {
    /// Propagating the branching emptied the box.
    Infeasible,
    /// The propagated box and the warm LP attempt from the parent basis
    /// (see [`warm_attempt`]).
    Solved(Domains, WarmAttempt),
}

/// One open node's first work, with everything it reads and every buffer
/// it writes.
pub(crate) struct Task {
    /// The rows the task propagates and solves over.
    pub(crate) propagator: Arc<Propagator>,
    /// The minimisation objective and its constant.
    pub(crate) objective: Arc<[f64]>,
    pub(crate) objective_constant: f64,
    /// The solve's LP pivot cap.
    pub(crate) max_lp_pivots: u64,
    /// The variable the node's branching tightened.
    pub(crate) branched: usize,
    /// The parent's basis, carried over to the task's rows.
    pub(crate) basis: Arc<Basis>,
    /// A copy of the node's box, propagated in place.
    pub(crate) domains: Domains,
    /// The vectors the warm LP works in, dropped with the task.
    pub(crate) kernel: KernelBuffers,
    /// The vectors of an optimal LP.
    pub(crate) vectors: SolutionVectors,
    /// Arms the warm-start factorization audit on the helper for a task of
    /// an audited search.
    #[cfg(test)]
    pub(crate) audit: bool,
    /// Panics inside the task, to test the re-raise.
    #[cfg(test)]
    pub(crate) panic: bool,
}

impl Task {
    /// The node's propagation, then its warm LP attempt: what its pop
    /// computes first, propagating in the helper's `worklist`.
    fn run(mut self, worklist: &mut Worklist) -> NodeWork {
        #[cfg(test)]
        let _audit = crate::simplex::arm_audit(self.audit);
        #[cfg(test)]
        if self.panic {
            panic!("injected panic in a speculative task");
        }
        let propagated =
            (self.propagator).propagate_seeded_in(&mut self.domains, &[self.branched], worklist);
        if propagated == PropagationResult::Infeasible {
            return NodeWork::Infeasible;
        }
        let attempt = warm_attempt(
            self.propagator.matrix(),
            &self.objective,
            self.objective_constant,
            self.max_lp_pivots,
            &self.basis,
            &self.domains,
            &mut self.kernel,
            self.vectors,
        );
        NodeWork::Solved(self.domains, attempt)
    }
}

/// Where the helper leaves a task's work.
#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Default)]
enum SlotState {
    /// Waiting or running.
    #[default]
    Pending,
    Done(NodeWork),
    /// The task panicked; the payload waits in [`Shared::panic`].
    Panicked,
}

/// What the searching thread and the helper share.
struct Shared {
    inbox: Mutex<Inbox>,
    work: Condvar,
    /// The payload of the first task that panicked.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct Inbox {
    /// Tasks not started yet, oldest first.
    waiting: VecDeque<(Task, Arc<Slot>)>,
    /// No more tasks come; the helper stops once the running one is done.
    closed: bool,
}

/// Locks `mutex`, ignoring poison: every critical section here leaves its
/// data consistent, and task panics are caught before they reach a lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The helper thread's loop: start the newest waiting task, leave its work
/// in its slot, until the inbox closes. Every task propagates in
/// `worklist`.
fn serve(shared: &Shared, mut worklist: Worklist) {
    loop {
        let (task, slot) = {
            let mut inbox = lock(&shared.inbox);
            loop {
                if let Some(next) = inbox.waiting.pop_back() {
                    break next;
                }
                if inbox.closed {
                    return;
                }
                inbox = shared
                    .work
                    .wait(inbox)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let run = || task.run(&mut worklist);
        let state = match panic::catch_unwind(AssertUnwindSafe(run)) {
            Ok(work) => SlotState::Done(work),
            Err(payload) => {
                lock(&shared.panic).get_or_insert(payload);
                SlotState::Panicked
            }
        };
        *lock(&slot.state) = state;
        slot.ready.notify_one();
    }
}

/// A handed-out task as the search sees it.
pub(crate) struct Ticket {
    /// The node's position in the frontier.
    index: usize,
    /// The rows the task reads.
    propagator: Arc<Propagator>,
    slot: Arc<Slot>,
}

/// The searching thread's side of speculation: the helper, once started,
/// and a ticket per handed-out node, by frontier position. The frontier is
/// a stack, so the tickets are too: a node's ticket is on top when the node
/// is popped.
#[derive(Default)]
pub(crate) struct Speculation {
    shared: Option<Arc<Shared>>,
    thread: Option<JoinHandle<()>>,
    /// The helper could not be started; nothing is handed out.
    unavailable: bool,
    tickets: Vec<Ticket>,
}

impl Speculation {
    /// Whether the open node at frontier position `index` was handed out.
    pub(crate) fn handed_out(&self, index: usize) -> bool {
        self.unavailable || self.tickets.last().is_some_and(|t| t.index == index)
    }

    /// Hands `task`, the work of the open node at frontier position
    /// `index`, to the helper, starting the helper on the first task. A
    /// full queue drops its oldest waiting task, and past [`KEPT`] tickets
    /// the oldest ticket goes; such a node is handed out again when it
    /// comes next, or does its own work.
    pub(crate) fn hand_out(&mut self, index: usize, task: Task) {
        let Some(shared) = self.started(&task) else {
            return;
        };
        let slot = Arc::new(Slot::default());
        self.tickets.push(Ticket {
            index,
            propagator: Arc::clone(&task.propagator),
            slot: Arc::clone(&slot),
        });
        let mut inbox = lock(&shared.inbox);
        let dropped = (inbox.waiting.len() == QUEUE_DEPTH)
            .then(|| inbox.waiting.pop_front())
            .flatten();
        inbox.waiting.push_back((task, slot));
        drop(inbox);
        shared.work.notify_one();
        if let Some((_, dropped)) = dropped {
            self.tickets.retain(|t| !Arc::ptr_eq(&t.slot, &dropped));
        }
        if self.tickets.len() > KEPT {
            let oldest = self.tickets.remove(0);
            self.withdraw(&oldest);
        }
    }

    /// The ticket of the node just popped from frontier position `index`,
    /// if it was handed out. Take it before handing out the next node.
    pub(crate) fn take(&mut self, index: usize) -> Option<Ticket> {
        if self.tickets.last()?.index == index {
            self.tickets.pop()
        } else {
            None
        }
    }

    /// The work of `ticket`'s node: the helper's, waiting for it while the
    /// helper runs the task, when the task has started and read `rows`.
    /// `None` means the node does its own work; a task that was still
    /// waiting is taken back.
    pub(crate) fn collect(&mut self, ticket: Ticket, rows: &Arc<Propagator>) -> Option<NodeWork> {
        if self.withdraw(&ticket) {
            return None;
        }
        if !Arc::ptr_eq(&ticket.propagator, rows) {
            #[cfg(test)]
            tally(|t| t.stale += 1);
            return None;
        }
        let mut state = lock(&ticket.slot.state);
        loop {
            match std::mem::take(&mut *state) {
                SlotState::Pending => {
                    state = (ticket.slot.ready.wait(state)).unwrap_or_else(PoisonError::into_inner);
                }
                SlotState::Done(work) => {
                    #[cfg(test)]
                    tally(|t| t.taken += 1);
                    return Some(work);
                }
                SlotState::Panicked => {
                    drop(state);
                    self.reraise();
                    unreachable!("a panicked task leaves its payload");
                }
            }
        }
    }

    /// Forgets `ticket`'s task without its work (its node was pruned),
    /// taking it back if it has not started.
    pub(crate) fn discard(&mut self, ticket: Ticket) {
        self.withdraw(&ticket);
    }

    /// Stops the helper and joins it, then re-raises the first panic of a
    /// task on this thread.
    pub(crate) fn finish(mut self) {
        self.stop();
        self.reraise();
    }

    /// The shared state, starting the helper thread on first use with
    /// vectors sized for `task`.
    fn started(&mut self, task: &Task) -> Option<Arc<Shared>> {
        if self.shared.is_none() && !self.unavailable {
            let worklist = Worklist::for_matrix(task.propagator.matrix());
            let shared = Arc::new(Shared {
                inbox: Mutex::new(Inbox {
                    waiting: VecDeque::with_capacity(QUEUE_DEPTH),
                    closed: false,
                }),
                work: Condvar::new(),
                panic: Mutex::new(None),
            });
            let served = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name("bist-speculation".into())
                .spawn(move || serve(&served, worklist));
            match spawned {
                Ok(thread) => {
                    #[cfg(test)]
                    tally(|t| t.started += 1);
                    self.shared = Some(shared);
                    self.thread = Some(thread);
                }
                Err(_) => self.unavailable = true,
            }
        }
        self.shared.clone()
    }

    /// Takes `ticket`'s task back from the queue; whether it was waiting.
    fn withdraw(&self, ticket: &Ticket) -> bool {
        let Some(shared) = &self.shared else {
            return false;
        };
        let mut inbox = lock(&shared.inbox);
        let position = (inbox.waiting.iter()).position(|(_, slot)| Arc::ptr_eq(slot, &ticket.slot));
        let task = position.and_then(|i| inbox.waiting.remove(i));
        drop(inbox);
        task.is_some()
    }

    /// Re-raises the payload of the first task that panicked, if any.
    fn reraise(&self) {
        let payload = (self.shared.as_ref()).and_then(|shared| lock(&shared.panic).take());
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Closes the queue, drops the waiting tasks and joins the helper.
    fn stop(&mut self) {
        self.tickets.clear();
        let (Some(shared), Some(thread)) = (&self.shared, self.thread.take()) else {
            return;
        };
        let waiting = {
            let mut inbox = lock(&shared.inbox);
            inbox.closed = true;
            std::mem::take(&mut inbox.waiting)
        };
        drop(waiting);
        shared.work.notify_one();
        // Every task's panic is caught, so the thread itself returns.
        let _ = thread.join();
        #[cfg(test)]
        tally(|t| t.joined += 1);
    }
}

impl Drop for Speculation {
    /// An early exit, a panic on the searching thread included, still joins
    /// the helper.
    fn drop(&mut self) {
        self.stop();
    }
}
