//! # vetl-ml — from-scratch ML substrate for the Skyscraper reproduction
//!
//! The Skyscraper paper ("Extract-Transform-Load for Video Streams", VLDB
//! 2023) relies on three small machine-learning components:
//!
//! * **KMeans** clustering over per-segment *quality vectors* to construct
//!   content categories (§3.2),
//! * a **Gaussian mixture model** as the clustering ablation (Appendix B.2),
//! * a tiny **feed-forward neural network** that forecasts the content
//!   category distribution of the next planned interval (§3.3, Appendix K:
//!   `input → 16 ReLU → 8 ReLU → |C| softmax`).
//!
//! The original system uses scikit-learn and an off-the-shelf deep-learning
//! framework; this crate implements the same algorithms from scratch because
//! mature ML crates are not available in the reproduction environment. All
//! problem sizes in the paper are tiny (≤ 8 clusters, ≤ 64-dimensional
//! inputs, ≈ 1 200 training samples), so clarity is preferred over vectorized
//! performance — although the hot loops are written allocation-free.

pub mod gmm;
pub mod kmeans;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod nn;
pub mod optim;

pub use gmm::{GaussianMixture, GmmConfig};
pub use kmeans::{KMeans, KMeansConfig};
pub use loss::Loss;
pub use matrix::Matrix;
pub use metrics::{accuracy, mean_absolute_error};
pub use nn::{Activation, Layer, Mlp, MlpBuilder};
pub use optim::Adam;
