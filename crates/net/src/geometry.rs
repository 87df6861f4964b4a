//! Planar geometry for node positions (metres).

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A point (or vector) in the plane, in metres.
///
/// # Examples
///
/// ```
/// use pqs_net::geometry::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates in metres.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance (cheaper; use for comparisons).
    pub fn distance_squared(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation: the point a fraction `t ∈ [0,1]` of the way
    /// toward `other`.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// A uniform grid over a square area for neighbourhood queries.
///
/// Cells are at least `cell_size` wide; [`SpatialGrid::nearby`] returns a
/// superset of all indices within `cell_size` of the query point (it scans
/// the 3×3 cell block, or a larger block for larger radii), so callers must
/// filter by exact distance.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    side: f64,
    cells: usize,
    cell_size: f64,
    buckets: Vec<Vec<u32>>,
    /// Where each id currently lives (bucket index), for O(1) updates.
    location: Vec<Option<usize>>,
}

impl SpatialGrid {
    /// Creates a grid over `[0, side]²` with cells of at least
    /// `cell_size` metres, sized for ids `0..capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `side` or `cell_size` is not strictly positive.
    pub fn new(side: f64, cell_size: f64, capacity: usize) -> Self {
        assert!(side > 0.0 && cell_size > 0.0, "invalid grid dimensions");
        let cells = ((side / cell_size).floor() as usize).max(1);
        SpatialGrid {
            side,
            cells,
            cell_size: side / cells as f64,
            buckets: vec![Vec::new(); cells * cells],
            location: vec![None; capacity],
        }
    }

    fn bucket_of(&self, p: Point) -> usize {
        let cx = ((p.x / self.side * self.cells as f64) as usize).min(self.cells - 1);
        let cy = ((p.y / self.side * self.cells as f64) as usize).min(self.cells - 1);
        cy * self.cells + cx
    }

    /// Inserts or moves `id` to position `p`. The grid grows to
    /// accommodate ids beyond the initial capacity (late joiners).
    pub fn update(&mut self, id: u32, p: Point) {
        let new_bucket = self.bucket_of(p);
        let idx = id as usize;
        if idx >= self.location.len() {
            self.location.resize(idx + 1, None);
        }
        if let Some(old) = self.location[idx] {
            if old == new_bucket {
                return;
            }
            self.buckets[old].retain(|&other| other != id);
        }
        self.buckets[new_bucket].push(id);
        self.location[idx] = Some(new_bucket);
    }

    /// Removes `id` from the grid (e.g. a crashed node).
    pub fn remove(&mut self, id: u32) {
        if let Some(slot) = self.location.get_mut(id as usize) {
            if let Some(old) = slot.take() {
                self.buckets[old].retain(|&other| other != id);
            }
        }
    }

    /// Returns all ids whose *recorded* position may lie within `radius`
    /// of `p` (a superset; callers filter by exact distance).
    pub fn nearby(&self, p: Point, radius: f64) -> impl Iterator<Item = u32> + '_ {
        let reach = (radius / self.cell_size).ceil() as i64;
        let cx = ((p.x / self.side * self.cells as f64) as i64).clamp(0, self.cells as i64 - 1);
        let cy = ((p.y / self.side * self.cells as f64) as i64).clamp(0, self.cells as i64 - 1);
        let cells = self.cells as i64;
        let (x0, x1) = ((cx - reach).max(0), (cx + reach).min(cells - 1));
        let (y0, y1) = ((cy - reach).max(0), (cy + reach).min(cells - 1));
        (y0..=y1).flat_map(move |gy| {
            (x0..=x1).flat_map(move |gx| self.buckets[(gy * cells + gx) as usize].iter().copied())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!((b - a), Point::new(3.0, 4.0));
        assert_eq!((a + b), Point::new(5.0, 8.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.lerp(b, 0.5), Point::new(2.5, 4.0));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn grid_finds_nearby_points() {
        let mut grid = SpatialGrid::new(1000.0, 100.0, 10);
        grid.update(0, Point::new(500.0, 500.0));
        grid.update(1, Point::new(550.0, 500.0));
        grid.update(2, Point::new(900.0, 900.0));
        let found: Vec<u32> = grid.nearby(Point::new(510.0, 500.0), 100.0).collect();
        assert!(found.contains(&0) && found.contains(&1));
        assert!(!found.contains(&2));
    }

    #[test]
    fn grid_update_moves_id() {
        let mut grid = SpatialGrid::new(1000.0, 100.0, 4);
        grid.update(0, Point::new(50.0, 50.0));
        grid.update(0, Point::new(950.0, 950.0));
        let near_old: Vec<u32> = grid.nearby(Point::new(50.0, 50.0), 100.0).collect();
        assert!(near_old.is_empty());
        let near_new: Vec<u32> = grid.nearby(Point::new(950.0, 950.0), 100.0).collect();
        assert_eq!(near_new, vec![0]);
    }

    #[test]
    fn grid_remove() {
        let mut grid = SpatialGrid::new(100.0, 10.0, 2);
        grid.update(0, Point::new(5.0, 5.0));
        grid.remove(0);
        assert_eq!(grid.nearby(Point::new(5.0, 5.0), 10.0).count(), 0);
        grid.remove(0); // idempotent
    }

    #[test]
    fn grid_radius_larger_than_cell() {
        let mut grid = SpatialGrid::new(1000.0, 100.0, 2);
        grid.update(0, Point::new(100.0, 100.0));
        grid.update(1, Point::new(600.0, 100.0));
        let found: Vec<u32> = grid.nearby(Point::new(100.0, 100.0), 600.0).collect();
        assert!(found.contains(&1), "larger radii must widen the scan");
    }

    #[test]
    fn grid_edges_clamped() {
        let mut grid = SpatialGrid::new(100.0, 30.0, 2);
        grid.update(0, Point::new(99.9, 99.9));
        grid.update(1, Point::new(0.0, 0.0));
        let found: Vec<u32> = grid.nearby(Point::new(99.0, 99.0), 30.0).collect();
        assert!(found.contains(&0));
    }
}
