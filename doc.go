// Package bpar is a from-scratch Go reproduction of "Task-based
// Acceleration of Bidirectional Recurrent Neural Networks on Multi-core
// Architectures" (Sharma & Casas, IPDPS 2022).
//
// B-Par executes bidirectional LSTM/GRU networks as barrier-free task
// dependency graphs: every cell update, merge (Equation 11), and gradient
// task carries in/out data annotations, and an OmpSs-like runtime schedules
// tasks the moment their dependencies resolve, overlapping forward-order
// cells, reverse-order cells, and layers.
//
// The implementation lives under internal/:
//
//	internal/tensor      dense kernels (GEMM, gates, softmax)
//	internal/cell        LSTM/GRU forward + BPTT backward (Eqs. 1-10)
//	internal/taskrt      the task-dependency runtime (OmpSs substitute)
//	internal/core        B-Par: model builder, task emission, training
//	internal/sim         discrete-event 48-core NUMA platform simulator
//	internal/costmodel   calibrated machine/GPU models
//	internal/baseline    Keras/PyTorch/GPU framework execution models
//	internal/data        synthetic TIDIGITS and Wikipedia workloads
//	internal/experiments every table and figure of the paper's evaluation
//
// cmd/bpar-bench regenerates each table and figure; the benchmark harness
// in bench/ measures native-engine speed. See README.md, DESIGN.md and
// EXPERIMENTS.md.
package bpar
