//! Fixed-size `f32` vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

macro_rules! impl_vec_common {
    ($name:ident, $n:expr, $($field:ident => $idx:expr),+) => {
        impl $name {
            /// Constructs a vector from components.
            #[inline]
            pub const fn new($($field: f32),+) -> Self {
                Self { $($field),+ }
            }

            /// Vector with all components equal to `v`.
            #[inline]
            pub const fn splat(v: f32) -> Self {
                Self { $($field: v),+ }
            }

            /// The zero vector.
            pub const ZERO: Self = Self::splat(0.0);
            /// The all-ones vector.
            pub const ONE: Self = Self::splat(1.0);

            /// Dot product.
            #[inline]
            pub fn dot(self, rhs: Self) -> f32 {
                0.0 $(+ self.$field * rhs.$field)+
            }

            /// Squared Euclidean length.
            #[inline]
            pub fn length_squared(self) -> f32 {
                self.dot(self)
            }

            /// Euclidean length.
            #[inline]
            pub fn length(self) -> f32 {
                self.length_squared().sqrt()
            }

            /// Returns the vector scaled to unit length.
            ///
            /// Returns the zero vector when the input length is not a
            /// positive finite number, so callers never observe NaNs.
            #[inline]
            pub fn normalized(self) -> Self {
                let len = self.length();
                if len > 0.0 && len.is_finite() {
                    self / len
                } else {
                    Self::ZERO
                }
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, rhs: Self) -> Self {
                Self { $($field: self.$field.min(rhs.$field)),+ }
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, rhs: Self) -> Self {
                Self { $($field: self.$field.max(rhs.$field)),+ }
            }

            /// Component-wise absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self { $($field: self.$field.abs()),+ }
            }

            /// Largest component.
            #[inline]
            pub fn max_element(self) -> f32 {
                f32::NEG_INFINITY $(.max(self.$field))+
            }

            /// Smallest component.
            #[inline]
            pub fn min_element(self) -> f32 {
                f32::INFINITY $(.min(self.$field))+
            }

            /// Linear interpolation: `self * (1 - t) + rhs * t`.
            #[inline]
            pub fn lerp(self, rhs: Self, t: f32) -> Self {
                self + (rhs - self) * t
            }

            /// True when every component is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                true $(&& self.$field.is_finite())+
            }

            /// Distance between two points.
            #[inline]
            pub fn distance(self, rhs: Self) -> f32 {
                (self - rhs).length()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self { $($field: self.$field + rhs.$field),+ }
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self { $($field: self.$field - rhs.$field),+ }
            }
        }

        impl Mul<f32> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f32) -> Self {
                Self { $($field: self.$field * rhs),+ }
            }
        }

        impl Mul<$name> for f32 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                rhs * self
            }
        }

        impl Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                Self { $($field: self.$field * rhs.$field),+ }
            }
        }

        impl Div<f32> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f32) -> Self {
                Self { $($field: self.$field / rhs),+ }
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self { $($field: -self.$field),+ }
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl MulAssign<f32> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f32) {
                *self = *self * rhs;
            }
        }

        impl DivAssign<f32> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f32) {
                *self = *self / rhs;
            }
        }

        impl Index<usize> for $name {
            type Output = f32;
            #[inline]
            fn index(&self, index: usize) -> &f32 {
                match index {
                    $($idx => &self.$field,)+
                    _ => panic!("index {index} out of bounds for {}", stringify!($name)),
                }
            }
        }

        impl Default for $name {
            #[inline]
            fn default() -> Self {
                Self::ZERO
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "(")?;
                let mut first = true;
                $(
                    if !first { write!(f, ", ")?; }
                    write!(f, "{}", self.$field)?;
                    #[allow(unused_assignments, reason = "the last repetition's store is never read")]
                    { first = false; }
                )+
                write!(f, ")")
            }
        }
    };
}

/// 2D `f32` vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

/// 3D `f32` vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

/// 4D `f32` vector (homogeneous coordinates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W component.
    pub w: f32,
}

impl_vec_common!(Vec2, 2, x => 0, y => 1);
impl_vec_common!(Vec3, 3, x => 0, y => 1, z => 2);
impl_vec_common!(Vec4, 4, x => 0, y => 1, z => 2, w => 3);

impl Vec2 {
    /// Perpendicular dot product (z of the 3D cross product).
    #[inline]
    pub fn perp_dot(self, rhs: Self) -> f32 {
        self.x * rhs.y - self.y * rhs.x
    }

    /// Extends to a [`Vec3`] with the given z.
    #[inline]
    pub fn extend(self, z: f32) -> Vec3 {
        Vec3::new(self.x, self.y, z)
    }
}

impl Vec3 {
    /// Unit X axis.
    pub const X: Self = Self::new(1.0, 0.0, 0.0);
    /// Unit Y axis.
    pub const Y: Self = Self::new(0.0, 1.0, 0.0);
    /// Unit Z axis.
    pub const Z: Self = Self::new(0.0, 0.0, 1.0);

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Drops the z component.
    #[inline]
    pub fn truncate(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Extends to a [`Vec4`] with the given w.
    #[inline]
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }
}

impl Vec4 {
    /// Drops the w component.
    #[inline]
    pub fn truncate(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Perspective division: xyz / w.
    ///
    /// # Panics
    ///
    /// Does not panic; division by zero yields infinities, mirroring GPU
    /// clip-space semantics. Callers cull w≈0 points beforehand.
    #[inline]
    pub fn project(self) -> Vec3 {
        Vec3::new(self.x / self.w, self.y / self.w, self.z / self.w)
    }
}

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(v: [f32; 3]) -> Self {
        Self::new(v[0], v[1], v[2])
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

impl From<[f32; 2]> for Vec2 {
    #[inline]
    fn from(v: [f32; 2]) -> Self {
        Self::new(v[0], v[1])
    }
}

impl From<Vec2> for [f32; 2] {
    #[inline]
    fn from(v: Vec2) -> Self {
        [v.x, v.y]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_length() {
        let v = Vec3::new(3.0, 4.0, 12.0);
        assert_eq!(v.dot(v), 169.0);
        assert_eq!(v.length(), 13.0);
    }

    #[test]
    fn cross_follows_right_hand_rule() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn normalized_zero_is_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        let n = Vec3::new(0.0, 5.0, 0.0).normalized();
        assert!((n.length() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, 5.0);
        assert_eq!(a + b, Vec2::new(4.0, 7.0));
        assert_eq!(b - a, Vec2::new(2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, 2.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn component_minmax() {
        let a = Vec3::new(1.0, 9.0, -2.0);
        let b = Vec3::new(4.0, 3.0, 0.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 3.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(4.0, 9.0, 0.0));
        assert_eq!(a.max_element(), 9.0);
        assert_eq!(a.min_element(), -2.0);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn vec4_project() {
        let v = Vec4::new(2.0, 4.0, 6.0, 2.0);
        assert_eq!(v.project(), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn indexing() {
        let v = Vec4::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[3], 4.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let v = Vec2::new(1.0, 2.0);
        let _ = v[2];
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", Vec2::new(1.0, 2.0)), "(1, 2)");
    }

    #[test]
    fn conversions_roundtrip() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let arr: [f32; 3] = v.into();
        assert_eq!(Vec3::from(arr), v);
    }
}
