//! Procedural image-classification datasets standing in for
//! MNIST / CIFAR-10 / SVHN (offline substitution; see DESIGN.md).

use crate::Dataset;
use qd_tensor::rng::Rng;

/// Classic 5x7 bitmap font for digits 0–9 (row-major, MSB left).
const DIGIT_FONT: [[u8; 7]; 10] = [
    [
        0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110,
    ], // 0
    [
        0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110,
    ], // 1
    [
        0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b01000, 0b11111,
    ], // 2
    [
        0b11111, 0b00010, 0b00100, 0b00010, 0b00001, 0b10001, 0b01110,
    ], // 3
    [
        0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010,
    ], // 4
    [
        0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110,
    ], // 5
    [
        0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110,
    ], // 6
    [
        0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000,
    ], // 7
    [
        0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110,
    ], // 8
    [
        0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100,
    ], // 9
];

/// Image side length used by every synthetic dataset.
pub(crate) const HW: usize = 16;

/// The three procedural datasets used by this reproduction's experiments.
///
/// Each provides ten classes of `16 x 16` images with label-conditional
/// structure and per-sample jitter/noise — the properties the federated
/// unlearning algorithms exercise. The mapping to the paper's datasets is:
///
/// | paper | here | samples |
/// |---|---|---|
/// | MNIST | [`SyntheticDataset::Digits`] | grayscale jittered glyph digits |
/// | CIFAR-10 | [`SyntheticDataset::Cifar`] | RGB class-signature textures |
/// | SVHN | [`SyntheticDataset::Svhn`] | RGB digits over clutter |
///
/// # Examples
///
/// ```
/// use qd_data::SyntheticDataset;
/// use qd_tensor::rng::Rng;
///
/// let ds = SyntheticDataset::Cifar.generate(100, &mut Rng::seed_from(1));
/// assert_eq!(ds.len(), 100);
/// assert_eq!(ds.sample_dims(), (3, 16, 16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyntheticDataset {
    /// MNIST-like grayscale digits.
    Digits,
    /// CIFAR-10-like color textures.
    Cifar,
    /// SVHN-like colored digits on clutter.
    Svhn,
}

impl SyntheticDataset {
    /// Number of channels per image.
    pub fn channels(self) -> usize {
        match self {
            SyntheticDataset::Digits => 1,
            SyntheticDataset::Cifar | SyntheticDataset::Svhn => 3,
        }
    }

    /// Square image side length (16).
    pub fn hw(self) -> usize {
        HW
    }

    /// Number of classes (10 for all three).
    pub fn classes(self) -> usize {
        10
    }

    /// Human-readable name, annotated with the paper dataset it stands in
    /// for.
    pub fn name(self) -> &'static str {
        match self {
            SyntheticDataset::Digits => "SynthDigits (MNIST-like)",
            SyntheticDataset::Cifar => "SynthCifar (CIFAR-10-like)",
            SyntheticDataset::Svhn => "SynthSvhn (SVHN-like)",
        }
    }

    /// Generates `n` samples with uniformly random labels.
    pub fn generate(self, n: usize, rng: &mut Rng) -> Dataset {
        let labels: Vec<usize> = (0..n).map(|_| rng.below(self.classes())).collect();
        self.generate_with_labels(&labels, rng)
    }

    /// Generates one sample per entry of `labels`.
    ///
    /// # Panics
    ///
    /// Panics if any label is `>= 10`.
    pub fn generate_with_labels(self, labels: &[usize], rng: &mut Rng) -> Dataset {
        let c = self.channels();
        let mut images = Vec::with_capacity(labels.len() * c * HW * HW);
        for &y in labels {
            assert!(y < self.classes(), "label {y} out of range");
            match self {
                SyntheticDataset::Digits => render_digit(y, rng, &mut images),
                SyntheticDataset::Cifar => render_texture(y, rng, &mut images),
                SyntheticDataset::Svhn => render_svhn(y, rng, &mut images),
            }
        }
        Dataset::new(images, labels.to_vec(), self.classes(), c, HW, HW)
    }
}

/// Draws the glyph for `digit`, upscaled 2x, into a 16x16 canvas at offset
/// `(ox, oy)` with the given `intensity`.
fn stamp_glyph(canvas: &mut [f32; HW * HW], digit: usize, ox: usize, oy: usize, intensity: f32) {
    for (row, bits) in DIGIT_FONT[digit].iter().enumerate() {
        for col in 0..5 {
            if bits & (1 << (4 - col)) == 0 {
                continue;
            }
            for dy in 0..2 {
                for dx in 0..2 {
                    let y = oy + row * 2 + dy;
                    let x = ox + col * 2 + dx;
                    if y < HW && x < HW {
                        canvas[y * HW + x] = intensity;
                    }
                }
            }
        }
    }
}

fn render_digit(class: usize, rng: &mut Rng, out: &mut Vec<f32>) {
    let mut canvas = [0.0f32; HW * HW];
    let ox = rng.below(7); // glyph is 10 wide
    let oy = rng.below(3); // glyph is 14 tall
    let intensity = rng.uniform(0.7, 1.1);
    stamp_glyph(&mut canvas, class, ox, oy, intensity);
    for px in &mut canvas {
        *px = (*px + 0.1 * rng.normal() - 0.15).clamp(-0.5, 1.5);
    }
    out.extend_from_slice(&canvas);
}

/// Per-class texture signature: spatial frequencies and a color weighting.
fn cifar_signature(class: usize) -> ([f32; 2], [f32; 3]) {
    let fx = 1.0 + (class % 5) as f32 * 0.75;
    let fy = 1.0 + (class / 5) as f32 * 1.5 + (class % 3) as f32 * 0.5;
    let colors = [
        [1.0, 0.2, 0.2],
        [0.2, 1.0, 0.2],
        [0.2, 0.2, 1.0],
        [1.0, 1.0, 0.2],
        [1.0, 0.2, 1.0],
        [0.2, 1.0, 1.0],
        [0.9, 0.6, 0.2],
        [0.5, 0.9, 0.5],
        [0.4, 0.4, 0.9],
        [0.8, 0.8, 0.8],
    ];
    ([fx, fy], colors[class])
}

fn render_texture(class: usize, rng: &mut Rng, out: &mut Vec<f32>) {
    let ([fx, fy], color) = cifar_signature(class);
    // Bounded phase jitter: enough intra-class variation to make the task
    // non-trivial, small enough that class means stay informative.
    let base = class as f32 * 0.7;
    let phase_x = base + rng.uniform(-0.7, 0.7);
    let phase_y = base + rng.uniform(-0.7, 0.7);
    let amp = rng.uniform(0.45, 1.0);
    // The texture is a column wave times a row wave: `2 * HW` values, each
    // taken once instead of once per pixel and channel.
    let sx: [f32; HW] = std::array::from_fn(|x| {
        (std::f32::consts::TAU * fx * x as f32 / HW as f32 + phase_x).sin()
    });
    let sy: [f32; HW] = std::array::from_fn(|y| {
        (std::f32::consts::TAU * fy * y as f32 / HW as f32 + phase_y).cos()
    });
    for &cw in &color {
        for &sy in &sy {
            for &sx in &sx {
                let v = amp * cw * sx * sy + 0.25 * rng.normal();
                out.push(v.clamp(-1.5, 1.5));
            }
        }
    }
}

fn render_svhn(class: usize, rng: &mut Rng, out: &mut Vec<f32>) {
    // Cluttered low-frequency background per channel + colored glyph.
    let mut glyph = [0.0f32; HW * HW];
    let ox = 1 + rng.below(4);
    let oy = rng.below(2);
    stamp_glyph(&mut glyph, class, ox, oy, 1.0);
    let digit_color = [
        rng.uniform(0.6, 1.2),
        rng.uniform(0.6, 1.2),
        rng.uniform(0.6, 1.2),
    ];
    for digit_c in digit_color {
        let bg_fx = rng.uniform(0.5, 1.5);
        let bg_phase = rng.uniform(0.0, std::f32::consts::TAU);
        let bg_level = rng.uniform(-0.15, 0.15);
        // The background is a wave along the diagonal `x + y`: `2 * HW - 1`
        // values, each taken once instead of once per pixel.
        let bg: [f32; 2 * HW - 1] = std::array::from_fn(|diagonal| {
            bg_level
                + 0.15
                    * (std::f32::consts::TAU * bg_fx * diagonal as f32 / (2.0 * HW as f32)
                        + bg_phase)
                        .sin()
        });
        for y in 0..HW {
            for x in 0..HW {
                let g = glyph[y * HW + x];
                let v = bg[x + y] * (1.0 - g) + digit_c * g + 0.1 * rng.normal();
                out.push(v.clamp(-1.5, 1.5));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_requested_geometry() {
        let mut rng = Rng::seed_from(0);
        for ds in [
            SyntheticDataset::Digits,
            SyntheticDataset::Cifar,
            SyntheticDataset::Svhn,
        ] {
            let data = ds.generate(30, &mut rng);
            assert_eq!(data.len(), 30);
            assert_eq!(data.sample_dims(), (ds.channels(), 16, 16));
            assert_eq!(data.classes(), 10);
            let (x, _) = data.all();
            assert!(x.all_finite(), "{} produced non-finite pixels", ds.name());
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = SyntheticDataset::Cifar.generate(10, &mut Rng::seed_from(42));
        let b = SyntheticDataset::Cifar.generate(10, &mut Rng::seed_from(42));
        assert_eq!(a, b);
    }

    #[test]
    fn same_class_samples_differ_but_correlate() {
        let mut rng = Rng::seed_from(1);
        let ds = SyntheticDataset::Digits.generate_with_labels(&[7, 7], &mut rng);
        assert_ne!(ds.image(0), ds.image(1), "jitter should vary samples");
    }

    #[test]
    fn classes_are_linearly_separable_enough() {
        // A nearest-class-mean classifier on raw pixels should beat chance
        // by a wide margin on every dataset; this is the property the
        // substitution must preserve (label-conditional structure).
        for ds in [
            SyntheticDataset::Digits,
            SyntheticDataset::Cifar,
            SyntheticDataset::Svhn,
        ] {
            let mut rng = Rng::seed_from(2);
            let train = ds.generate(400, &mut rng);
            let test = ds.generate(100, &mut rng);
            let dim = train.sample_len();
            let mut means = vec![vec![0.0f32; dim]; 10];
            let counts = train.class_counts();
            for i in 0..train.len() {
                let y = train.label(i);
                for (m, &p) in means[y].iter_mut().zip(train.image(i)) {
                    *m += p;
                }
            }
            for (m, &cnt) in means.iter_mut().zip(&counts) {
                if cnt > 0 {
                    for v in m.iter_mut() {
                        *v /= cnt as f32;
                    }
                }
            }
            let mut correct = 0;
            for i in 0..test.len() {
                let img = test.image(i);
                let mut best = (f32::INFINITY, 0usize);
                for (k, m) in means.iter().enumerate() {
                    let d: f32 = m.iter().zip(img).map(|(a, b)| (a - b) * (a - b)).sum();
                    if d < best.0 {
                        best = (d, k);
                    }
                }
                if best.1 == test.label(i) {
                    correct += 1;
                }
            }
            let acc = correct as f32 / test.len() as f32;
            assert!(
                acc > 0.5,
                "{}: nearest-mean accuracy {acc} too low",
                ds.name()
            );
        }
    }

    #[test]
    fn digit_glyphs_are_distinct_bitmaps() {
        // Every pair of font glyphs must differ (a copy-paste error in the
        // font table would silently merge two classes).
        for (a, glyph_a) in DIGIT_FONT.iter().enumerate() {
            for (b, glyph_b) in DIGIT_FONT.iter().enumerate().skip(a + 1) {
                assert_ne!(glyph_a, glyph_b, "glyphs {a} and {b} identical");
            }
        }
    }

    #[test]
    fn digits_have_dark_background_bright_strokes() {
        let mut rng = Rng::seed_from(5);
        let ds = SyntheticDataset::Digits.generate_with_labels(&[8], &mut rng);
        let img = ds.image(0);
        let bright = img.iter().filter(|&&p| p > 0.4).count();
        // The 8-glyph covers 2x-upscaled ~19 font pixels = 76 of 256.
        assert!(bright > 30 && bright < 140, "stroke coverage {bright}");
    }

    #[test]
    fn cifar_classes_have_distinct_signatures() {
        for a in 0..10 {
            for b in (a + 1)..10 {
                assert_ne!(
                    cifar_signature(a),
                    cifar_signature(b),
                    "classes {a}/{b} share a texture signature"
                );
            }
        }
    }

    /// The first-draft renderers, one `sin`/`cos` per pixel, kept as the
    /// oracle of the ones above.
    mod per_pixel {
        use super::*;

        pub(super) fn render_texture(class: usize, rng: &mut Rng, out: &mut Vec<f32>) {
            let ([fx, fy], color) = cifar_signature(class);
            let base = class as f32 * 0.7;
            let phase_x = base + rng.uniform(-0.7, 0.7);
            let phase_y = base + rng.uniform(-0.7, 0.7);
            let amp = rng.uniform(0.45, 1.0);
            for &cw in &color {
                for y in 0..HW {
                    for x in 0..HW {
                        let sx =
                            (std::f32::consts::TAU * fx * x as f32 / HW as f32 + phase_x).sin();
                        let sy =
                            (std::f32::consts::TAU * fy * y as f32 / HW as f32 + phase_y).cos();
                        let v = amp * cw * sx * sy + 0.25 * rng.normal();
                        out.push(v.clamp(-1.5, 1.5));
                    }
                }
            }
        }

        pub(super) fn render_svhn(class: usize, rng: &mut Rng, out: &mut Vec<f32>) {
            let mut glyph = [0.0f32; HW * HW];
            let ox = 1 + rng.below(4);
            let oy = rng.below(2);
            stamp_glyph(&mut glyph, class, ox, oy, 1.0);
            let digit_color = [
                rng.uniform(0.6, 1.2),
                rng.uniform(0.6, 1.2),
                rng.uniform(0.6, 1.2),
            ];
            for digit_c in digit_color {
                let bg_fx = rng.uniform(0.5, 1.5);
                let bg_phase = rng.uniform(0.0, std::f32::consts::TAU);
                let bg_level = rng.uniform(-0.15, 0.15);
                for y in 0..HW {
                    for x in 0..HW {
                        let bg = bg_level
                            + 0.15
                                * (std::f32::consts::TAU * bg_fx * (x + y) as f32
                                    / (2.0 * HW as f32)
                                    + bg_phase)
                                    .sin();
                        let g = glyph[y * HW + x];
                        let v = bg * (1.0 - g) + digit_c * g + 0.1 * rng.normal();
                        out.push(v.clamp(-1.5, 1.5));
                    }
                }
            }
        }
    }

    #[test]
    fn hoisted_waves_match_the_per_pixel_oracle_to_the_bit() {
        for ds in [
            SyntheticDataset::Digits,
            SyntheticDataset::Cifar,
            SyntheticDataset::Svhn,
        ] {
            for seed in [0, 1, 7, 42, 2024] {
                let data = ds.generate(40, &mut Rng::seed_from(seed));
                let mut rng = Rng::seed_from(seed);
                let labels: Vec<usize> = (0..40).map(|_| rng.below(ds.classes())).collect();
                let mut want = Vec::new();
                for &y in &labels {
                    match ds {
                        SyntheticDataset::Digits => render_digit(y, &mut rng, &mut want),
                        SyntheticDataset::Cifar => {
                            per_pixel::render_texture(y, &mut rng, &mut want)
                        }
                        SyntheticDataset::Svhn => per_pixel::render_svhn(y, &mut rng, &mut want),
                    }
                }
                let (x, _) = data.all();
                let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(data.labels(), labels, "{} seed {seed}", ds.name());
                assert_eq!(bits(x.data()), bits(&want), "{} seed {seed}", ds.name());
            }
        }
    }

    #[test]
    fn generate_with_labels_respects_labels() {
        let mut rng = Rng::seed_from(3);
        let ds = SyntheticDataset::Svhn.generate_with_labels(&[1, 2, 3], &mut rng);
        assert_eq!(ds.labels(), &[1, 2, 3]);
    }
}
