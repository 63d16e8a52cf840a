pub use dpack_core::schedulers::ParallelDPack;
