//! Node mobility: static placement and the Random Waypoint model (§2.4).
//!
//! Positions are piecewise-linear in time: each node follows a *leg* from
//! `from` to `to` at constant speed, then pauses. Positions are evaluated
//! lazily — [`Motion::position`] interpolates analytically, so the engine
//! never generates per-tick movement events.

use crate::geometry::Point;
use pqs_sim::{SimDuration, SimTime};
use rand::Rng;

/// The mobility models used in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityModel {
    /// Nodes never move.
    Static,
    /// Random Waypoint: pick a uniform destination in the area, travel at
    /// a uniform speed from `[min_speed, max_speed]` m/s, pause, repeat.
    /// The paper's default is 0.5–2 m/s (walking) with a 30 s pause.
    RandomWaypoint {
        /// Minimum speed in m/s (must be > 0 to avoid the well-known
        /// random-waypoint speed-decay pathology).
        min_speed: f64,
        /// Maximum speed in m/s.
        max_speed: f64,
        /// Pause at each waypoint.
        pause: SimDuration,
    },
}

impl Default for MobilityModel {
    fn default() -> Self {
        MobilityModel::walking()
    }
}

impl MobilityModel {
    /// The paper's default mobile scenario: 0.5–2 m/s, 30 s pause.
    pub fn walking() -> Self {
        MobilityModel::RandomWaypoint {
            min_speed: 0.5,
            max_speed: 2.0,
            pause: SimDuration::from_secs(30),
        }
    }

    /// The paper's fast-mobility scenarios (§8.6): 0.5 m/s up to
    /// `max_speed` ∈ {2, 5, 10, 20} m/s, 30 s pause.
    pub fn fast(max_speed: f64) -> Self {
        MobilityModel::RandomWaypoint {
            min_speed: 0.5,
            max_speed,
            pause: SimDuration::from_secs(30),
        }
    }
}

/// One leg of movement: linear travel followed by a pause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Motion {
    from: Point,
    to: Point,
    depart: SimTime,
    arrive: SimTime,
    pause_until: SimTime,
}

impl Motion {
    /// A node standing still at `p` forever.
    pub fn stationary(p: Point, now: SimTime) -> Self {
        Motion {
            from: p,
            to: p,
            depart: now,
            arrive: now,
            pause_until: SimTime::MAX,
        }
    }

    /// A leg from `from` to `to` at `speed` m/s starting `now`, pausing
    /// for `pause` on arrival.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not strictly positive.
    pub fn leg(from: Point, to: Point, speed: f64, now: SimTime, pause: SimDuration) -> Self {
        assert!(speed > 0.0, "speed must be positive");
        let travel = SimDuration::from_secs_f64(from.distance(to) / speed);
        let arrive = now + travel;
        Motion {
            from,
            to,
            depart: now,
            arrive,
            pause_until: arrive + pause,
        }
    }

    /// The node's position at time `at`.
    ///
    /// Before departure the node is at `from`; after arrival it is at
    /// `to` (pausing).
    pub fn position(&self, at: SimTime) -> Point {
        if at <= self.depart {
            self.from
        } else if at >= self.arrive {
            self.to
        } else {
            let total = (self.arrive - self.depart).as_secs_f64();
            let done = (at - self.depart).as_secs_f64();
            self.from.lerp(self.to, done / total)
        }
    }

    /// When the node becomes ready for its next leg ([`SimTime::MAX`] for
    /// stationary nodes).
    pub fn next_transition(&self) -> SimTime {
        self.pause_until
    }

    /// The destination of this leg.
    pub fn destination(&self) -> Point {
        self.to
    }
}

/// Draws the initial motion state for a node placed at `p`.
pub fn initial_motion<R: Rng + ?Sized>(
    model: MobilityModel,
    p: Point,
    side: f64,
    now: SimTime,
    rng: &mut R,
) -> Motion {
    match model {
        MobilityModel::Static => Motion::stationary(p, now),
        MobilityModel::RandomWaypoint { .. } => next_leg(model, p, side, now, rng),
    }
}

/// Draws the next leg for a node currently at `p`.
///
/// # Panics
///
/// Panics if called with [`MobilityModel::Static`] (static nodes have no
/// legs) or if the model's speed range is invalid.
pub fn next_leg<R: Rng + ?Sized>(
    model: MobilityModel,
    p: Point,
    side: f64,
    now: SimTime,
    rng: &mut R,
) -> Motion {
    match model {
        MobilityModel::Static => panic!("static nodes have no next leg"),
        MobilityModel::RandomWaypoint {
            min_speed,
            max_speed,
            pause,
        } => {
            assert!(
                0.0 < min_speed && min_speed <= max_speed,
                "invalid speed range {min_speed}..{max_speed}"
            );
            let to = Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side);
            let speed = if min_speed == max_speed {
                min_speed
            } else {
                rng.gen_range(min_speed..max_speed)
            };
            Motion::leg(p, to, speed, now, pause)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqs_sim::rng;

    #[test]
    fn stationary_never_moves() {
        let m = Motion::stationary(Point::new(5.0, 5.0), SimTime::ZERO);
        assert_eq!(m.position(SimTime::from_secs(100)), Point::new(5.0, 5.0));
        assert_eq!(m.next_transition(), SimTime::MAX);
    }

    #[test]
    fn leg_interpolates_linearly() {
        let m = Motion::leg(
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            10.0,
            SimTime::ZERO,
            SimDuration::from_secs(30),
        );
        assert_eq!(m.position(SimTime::ZERO), Point::new(0.0, 0.0));
        let mid = m.position(SimTime::from_secs(5));
        assert!((mid.x - 50.0).abs() < 1e-6);
        assert_eq!(m.position(SimTime::from_secs(10)), Point::new(100.0, 0.0));
        // Pausing at destination.
        assert_eq!(m.position(SimTime::from_secs(20)), Point::new(100.0, 0.0));
        assert_eq!(m.next_transition(), SimTime::from_secs(40));
    }

    #[test]
    fn waypoints_stay_in_area() {
        let mut r = rng::stream(1, 0);
        let model = MobilityModel::walking();
        let mut p = Point::new(500.0, 500.0);
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            let m = next_leg(model, p, 1000.0, now, &mut r);
            p = m.destination();
            assert!((0.0..=1000.0).contains(&p.x) && (0.0..=1000.0).contains(&p.y));
            now = m.next_transition();
        }
    }

    #[test]
    fn speed_within_bounds() {
        let mut r = rng::stream(2, 0);
        for _ in 0..100 {
            let m = next_leg(
                MobilityModel::fast(20.0),
                Point::new(0.0, 0.0),
                1000.0,
                SimTime::ZERO,
                &mut r,
            );
            let dist = Point::new(0.0, 0.0).distance(m.destination());
            if dist > 1.0 {
                let secs = (m.arrive - m.depart).as_secs_f64();
                let speed = dist / secs;
                assert!(
                    (0.5..=20.0001).contains(&speed),
                    "speed {speed} out of range"
                );
            }
        }
    }

    #[test]
    fn initial_motion_static_vs_mobile() {
        let mut r = rng::stream(3, 0);
        let p = Point::new(1.0, 2.0);
        let stat = initial_motion(MobilityModel::Static, p, 100.0, SimTime::ZERO, &mut r);
        assert_eq!(stat.next_transition(), SimTime::MAX);
        let mobile = initial_motion(MobilityModel::walking(), p, 100.0, SimTime::ZERO, &mut r);
        assert!(mobile.next_transition() < SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "static nodes have no next leg")]
    fn static_next_leg_panics() {
        let mut r = rng::stream(4, 0);
        let _ = next_leg(
            MobilityModel::Static,
            Point::default(),
            1.0,
            SimTime::ZERO,
            &mut r,
        );
    }
}
