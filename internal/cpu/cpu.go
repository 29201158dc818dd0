// Package cpu reports the instruction-set extensions the amd64 kernels
// need, read once from CPUID at init. The packages with assembly kernels
// (sz2, orchestrator, stats) take their path from it; there is no
// switch.
package cpu

// AVX2 reports AVX2 with the YMM state enabled by the OS. It is false
// off amd64.
var AVX2 = hasAVX2()
