//go:build !race

package main

// raceEnabled lengthens the smoke run's window and lifts its time budget
// under the race detector, which slows the kernels several times over.
const raceEnabled = false
