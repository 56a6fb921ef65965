//go:build !unix

package main

import "time"

// processCPU is unavailable off unix; host.cpu_ms_per_kop then reads zero
// and the CPU-starvation validity gate is skipped.
func processCPU() time.Duration { return 0 }
