//! The open-operation core: the per-operation rules of the access
//! protocol, defined once for both engines.
//!
//! An advertise or lookup is the same operation whether
//! [`crate::stack::QuorumStack`] walks, floods and routes it over the
//! simulated MANET or [`crate::endpoint::QuorumEndpoint`] sends it as
//! datagrams: it accesses its side of the engine's live spec, counts
//! confirmed placements, tallies votes, and is judged against the
//! [`RetryPolicy`] after every attempt. [`OpenOp`] holds that state and
//! those rules.
//!
//! What it leaves to the engines is dissemination: how a quorum is
//! sampled and reached, and how a placement is *confirmed*. The
//! simulator keeps the paper's message-cost model (the receiving node's
//! handler notes the placement in-process, no ack frame — Fig. 8(a)
//! counts `|Qa|` stores); wire hosts need a `StoreAck` round trip. Both
//! end in the same [`OpenOp::placed`].

use crate::service::{ByzMode, ByzPolicy, OpKind, RetryPolicy};
use crate::spec::{AccessStrategy, BiquorumSpec, QuorumSpec};
use crate::store::{Key, Value};
use pqs_net::NodeId;
use pqs_sim::{SimDuration, SimTime};
use rand::Rng;

/// The masking-read votes of one open lookup: every distinct value
/// reported so far with the distinct responders that reported it, in
/// arrival order.
#[derive(Debug, Clone, Default)]
struct VoteTally {
    votes: Vec<(Value, Vec<NodeId>)>,
}

impl VoteTally {
    /// Records one vote per `(value, responder)` pair — a duplicated
    /// frame cannot double-count.
    fn add(&mut self, value: Value, from: NodeId) {
        match self.votes.iter_mut().find(|(v, _)| *v == value) {
            Some((_, voters)) => {
                if !voters.contains(&from) {
                    voters.push(from);
                }
            }
            None => self.votes.push((value, vec![from])),
        }
    }

    /// The first-arrived value with at least `threshold` distinct
    /// voters.
    fn winner(&self, threshold: usize) -> Option<Value> {
        let won = self.votes.iter().find(|(_, v)| v.len() >= threshold);
        won.map(|(value, _)| *value)
    }

    /// The highest-voted value regardless of threshold; the
    /// first-arrived wins ties, so the choice is deterministic. `None`
    /// while no vote was cast.
    fn best(&self) -> Option<Value> {
        // `max_by_key` keeps the last maximum: scan newest-first.
        let best = self.votes.iter().rev().max_by_key(|(_, v)| v.len());
        best.map(|(value, _)| *value)
    }

    /// The verdict for `value`: its votes against everyone else's.
    fn verdict(&self, value: Value) -> Verdict {
        let (mut votes, mut dissent) = (0, 0);
        for (v, voters) in &self.votes {
            if *v == value {
                votes = voters.len();
            } else {
                dissent += voters.len() as u64;
            }
        }
        Verdict {
            value,
            votes,
            dissent,
        }
    }
}

/// The value a lookup closes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The accepted value.
    pub value: Value,
    /// Distinct responders that vouched for it.
    pub votes: usize,
    /// Votes cast for any other value (the replies a masking read
    /// suspects).
    pub dissent: u64,
}

/// What the retry layer does with an operation at its judgement point,
/// `attempt_timeout` after an issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// The operation succeeded; nothing is left to do.
    Done,
    /// Re-issue after this (jittered) backoff.
    Backoff(SimDuration),
    /// The attempt budget is spent.
    Exhausted,
    /// The per-operation deadline has passed.
    Deadline,
}

/// One issued, not yet forgotten operation. See the module docs.
#[derive(Debug, Clone)]
pub struct OpenOp {
    /// Advertise or lookup.
    pub kind: OpKind,
    /// The key operated on.
    pub key: Key,
    /// The advertise payload (`None` for lookups).
    pub value: Option<Value>,
    /// When the operation was issued.
    pub started: SimTime,
    attempts: u32,
    placed: u32,
    answered: bool,
    votes: VoteTally,
}

impl OpenOp {
    /// A freshly issued operation: first attempt, nothing placed, no
    /// votes.
    pub fn new(kind: OpKind, key: Key, value: Option<Value>, now: SimTime) -> Self {
        OpenOp {
            kind,
            key,
            value,
            started: now,
            attempts: 1,
            placed: 0,
            answered: false,
            votes: VoteTally::default(),
        }
    }

    /// The `(strategy, size)` this operation accesses: its side of the
    /// engine's current `spec`.
    pub fn quorum(&self, spec: &BiquorumSpec) -> QuorumSpec {
        match self.kind {
            OpKind::Advertise => spec.advertise,
            OpKind::Lookup => spec.lookup,
        }
    }

    /// Issue attempts so far (1 = first issue, no retries).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Confirmed placements so far.
    pub(crate) fn placements(&self) -> u32 {
        self.placed
    }

    /// Whether a lookup has its answer (a vote verdict or a degraded
    /// one).
    pub(crate) fn answered(&self) -> bool {
        self.answered
    }

    /// Quorum members still to place: what a member-count strategy
    /// re-sends on a retry.
    pub fn shortfall(&self, spec: &BiquorumSpec) -> usize {
        self.quorum(spec).size.saturating_sub(self.placed) as usize
    }

    /// Counts one confirmed placement; `true` once an advertise has
    /// reached its placement target.
    pub fn placed(&mut self, spec: &BiquorumSpec) -> bool {
        self.placed += 1;
        self.kind == OpKind::Advertise && self.is_done(spec)
    }

    /// Whether the operation needs no (further) attempts: a lookup has
    /// its answer, an advertise its placements.
    pub fn is_done(&self, spec: &BiquorumSpec) -> bool {
        match self.kind {
            OpKind::Lookup => self.answered,
            OpKind::Advertise => {
                let quorum = self.quorum(spec);
                // Flooding's size parameter is a TTL, not a member count,
                // and floods are unconfirmed — the origin's own store is
                // the only guaranteed placement.
                let target = match quorum.strategy {
                    AccessStrategy::Flooding => 1,
                    _ => quorum.size,
                };
                self.placed >= target
            }
        }
    }

    /// Feeds one responder's reply into an open lookup. Trusting mode
    /// is the paper's first-reply-wins; masking mode tallies one vote
    /// per `(value, responder)` pair and accepts a value only once
    /// `b + 1` distinct responders concur on it. Returns the verdict
    /// that answers the lookup, once.
    pub fn vote(&mut self, from: NodeId, values: &[Value], byz: &ByzPolicy) -> Option<Verdict> {
        if self.kind != OpKind::Lookup || self.answered {
            return None;
        }
        let verdict = match byz.mode {
            ByzMode::Trusting => Verdict {
                value: *values.first()?,
                votes: 1,
                dissent: 0,
            },
            ByzMode::Masking => {
                for &v in values {
                    self.votes.add(v, from);
                }
                let winner = self.votes.winner(byz.threshold())?;
                std::mem::take(&mut self.votes).verdict(winner)
            }
        };
        self.answered = true;
        Some(verdict)
    }

    /// Graceful degradation: answers a lookup that collected votes but
    /// never verified with its highest-voted value (first-arrived wins
    /// ties). `None` when no vote is waiting.
    pub fn degrade(&mut self) -> Option<Verdict> {
        let tally = std::mem::take(&mut self.votes);
        let verdict = tally.verdict(tally.best()?);
        self.answered = true;
        Some(verdict)
    }

    /// The judgement point, `attempt_timeout` after an issue. Draws
    /// from `rng` only for [`Judgement::Backoff`] (the jitter).
    pub fn judge(
        &self,
        spec: &BiquorumSpec,
        policy: &RetryPolicy,
        now: SimTime,
        rng: &mut impl Rng,
    ) -> Judgement {
        if self.is_done(spec) {
            Judgement::Done
        } else if now >= self.started + policy.op_deadline {
            Judgement::Deadline
        } else if self.attempts >= policy.max_attempts {
            Judgement::Exhausted
        } else {
            Judgement::Backoff(policy.jittered_backoff(self.attempts, rng))
        }
    }

    /// Backoff expiry: counts the next attempt, unless the deadline
    /// passed while backing off — then `false`, and the operation must
    /// be closed as [`Judgement::Deadline`] without another issue.
    pub fn fire(&mut self, policy: &RetryPolicy, now: SimTime) -> bool {
        let in_time = now < self.started + policy.op_deadline;
        if in_time {
            self.attempts += 1;
        }
        in_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_sim::rng::{stream, streams};

    const SPEC: BiquorumSpec = BiquorumSpec::new(
        QuorumSpec::new(AccessStrategy::Random, 3),
        QuorumSpec::new(AccessStrategy::Random, 5),
    );

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            attempt_timeout: SimDuration::from_secs(1),
            base_backoff: SimDuration::from_millis(400),
            max_backoff: SimDuration::from_secs(2),
            op_deadline: SimDuration::from_secs(10),
            adapt_quorum: false,
            epsilon: 0.1,
        }
    }

    fn lookup() -> OpenOp {
        OpenOp::new(OpKind::Lookup, 7, None, SimTime::from_secs(100))
    }

    /// A lookup with `fired` re-issues behind it.
    fn retried(fired: u32) -> OpenOp {
        let mut op = lookup();
        for _ in 0..fired {
            assert!(op.fire(&policy(), op.started));
        }
        op
    }

    #[test]
    fn judge_and_fire_follow_the_retry_policy() {
        let at = |secs: u64| SimTime::from_secs(100 + secs);
        let mut answered = lookup();
        answered.vote(NodeId(1), &[9], &ByzPolicy::trusting());
        let mut placed = OpenOp::new(OpKind::Advertise, 7, Some(9), at(0));
        assert!(!placed.placed(&SPEC) && !placed.placed(&SPEC));
        assert!(placed.placed(&SPEC), "third of |Qa| = 3");

        // (op, checked at, verdict; `None` = a backoff within the jitter range of this retry)
        let table = [
            (answered, at(1), Some(Judgement::Done)),
            (placed, at(1), Some(Judgement::Done)),
            (retried(0), at(1), None),
            (retried(1), at(3), None),
            (retried(2), at(5), Some(Judgement::Exhausted)),
            (retried(0), at(10), Some(Judgement::Deadline)),
            (retried(2), at(11), Some(Judgement::Deadline)),
        ];
        let mut rng = stream(1, streams::QUORUM);
        for (op, now, want) in table {
            let got = op.judge(&SPEC, &policy(), now, &mut rng);
            match (want, got) {
                (Some(want), got) => assert_eq!(got, want, "attempt {} at {now}", op.attempts()),
                (None, Judgement::Backoff(d)) => {
                    let b = policy().backoff_before(op.attempts());
                    assert!(b / 2 <= d && d <= b, "{d} outside the jitter of {b}");
                }
                (None, got) => panic!("expected a backoff, got {got:?}"),
            }
        }

        // Backoff expiry re-checks the deadline before counting an attempt.
        let mut op = lookup();
        assert!(op.fire(&policy(), at(9)));
        assert_eq!(op.attempts(), 2);
        assert!(
            !op.fire(&policy(), at(10)),
            "deadline passed while backing off"
        );
        assert_eq!(op.attempts(), 2);
    }

    #[test]
    fn votes_verify_at_the_threshold_and_degrade_to_the_first_arrived_best() {
        let masking = ByzPolicy::masking(1);
        let mut op = lookup();
        assert_eq!(op.vote(NodeId(1), &[111], &masking), None);
        // A duplicated frame must not double-count.
        assert_eq!(op.vote(NodeId(1), &[111], &masking), None);
        assert_eq!(op.vote(NodeId(2), &[222], &masking), None);
        let verdict = op
            .vote(NodeId(3), &[222], &masking)
            .expect("b + 1 = 2 concur");
        assert_eq!((verdict.value, verdict.votes, verdict.dissent), (222, 2, 1));
        assert_eq!(op.vote(NodeId(4), &[222], &masking), None, "answered once");
        assert_eq!(op.degrade(), None, "nothing left to degrade");

        // Unverified: of equally voted values the first to arrive wins.
        let mut op = lookup();
        op.vote(NodeId(1), &[111], &masking);
        op.vote(NodeId(2), &[222], &masking);
        let verdict = op.degrade().expect("votes were cast");
        assert_eq!((verdict.value, verdict.votes, verdict.dissent), (111, 1, 1));
        assert!(op.is_done(&SPEC));

        // Trusting: the first non-empty reply wins, misses do not.
        let mut op = lookup();
        assert_eq!(op.vote(NodeId(1), &[], &ByzPolicy::trusting()), None);
        let verdict = op.vote(NodeId(2), &[55, 66], &ByzPolicy::trusting());
        assert_eq!(verdict.map(|v| v.value), Some(55));
        assert_eq!(lookup().degrade(), None, "no votes, no degraded answer");
    }
}
