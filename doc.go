// Package repro is a from-scratch Go reproduction of "MAD: Memory-Aware
// Design Techniques for Accelerating Fully Homomorphic Encryption"
// (MICRO 2023): the SimFHE analytic simulator, the seven MAD caching and
// algorithmic optimizations, a functional RNS-CKKS library with
// bootstrapping that validates the optimizations' correctness, and
// cmd/simfhe, which regenerates every table and figure of the paper's
// evaluation.
package repro
