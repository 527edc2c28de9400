// Package aotm implements the paper's core metric: the Age of Twin
// Migration (AoTM), the time elapsed between the generation of the first
// Vehicular-Twin block and the reception of the last one during a VT
// migration, together with the immersion function that maps AoTM to VMU
// benefit.
//
// Units follow the reproduction's calibration (see DESIGN.md): data sizes
// are expressed in units of 100 MB and bandwidth in MHz, so that the
// paper's reported equilibrium prices, demands, and utilities are
// reproduced exactly.
package aotm

import (
	"fmt"
	"math"

	"vtmig/internal/channel"
)

// DataUnit100MB converts megabytes into the model's data unit.
const DataUnit100MB = 100.0

// FromMB converts a size in megabytes to model data units.
func FromMB(mb float64) float64 { return mb / DataUnit100MB }

// ToMB converts model data units to megabytes.
func ToMB(units float64) float64 { return units * DataUnit100MB }

// AoTM returns the Age of Twin Migration A = D/γ for total migrated data D
// (model units) and transmission rate γ (Eq. 1). It returns +Inf when the
// rate is zero (no bandwidth purchased ⇒ the migration never completes).
func AoTM(dataSize, rate float64) float64 {
	if dataSize <= 0 {
		panic(fmt.Sprintf("aotm: data size must be positive, got %g", dataSize))
	}
	if rate < 0 {
		panic(fmt.Sprintf("aotm: negative rate %g", rate))
	}
	if rate == 0 {
		return math.Inf(1)
	}
	return dataSize / rate
}

// AoTMForBandwidth computes A = D / (b·log2(1+SNR)) directly from the
// purchased bandwidth b (MHz) and the channel parameters.
func AoTMForBandwidth(dataSize, bandwidth float64, ch channel.Params) float64 {
	return AoTM(dataSize, ch.Rate(bandwidth))
}

// Immersion returns the immersion benefit G = α·ln(1 + 1/A) a VMU derives
// from a migration with age A (Section III-B.1). A fresher migration
// (smaller A) yields more immersion; A = +Inf yields zero.
func Immersion(alpha, age float64) float64 {
	if alpha <= 0 {
		panic(fmt.Sprintf("aotm: immersion coefficient must be positive, got %g", alpha))
	}
	if age <= 0 {
		panic(fmt.Sprintf("aotm: age must be positive, got %g", age))
	}
	if math.IsInf(age, 1) {
		return 0
	}
	return alpha * math.Log(1+1/age)
}

// ImmersionForBandwidth is the composed form G(b) = α·ln(1 + b·e/D) used
// by the Stackelberg analysis, where e is the spectral efficiency.
func ImmersionForBandwidth(alpha, dataSize, bandwidth float64, ch channel.Params) float64 {
	return ImmersionForRate(alpha, dataSize, bandwidth, ch.SpectralEfficiency())
}

// ImmersionForRate is ImmersionForBandwidth at an already-evaluated
// spectral efficiency e: the migration rate is γ = b·e, the same product
// channel.Params.Rate forms, so a caller that hoists e out of a
// per-follower loop gets bit-identical immersions. Zero bandwidth yields
// zero immersion; negative bandwidth panics.
func ImmersionForRate(alpha, dataSize, bandwidth, efficiency float64) float64 {
	if bandwidth == 0 {
		return 0
	}
	if bandwidth < 0 {
		panic(fmt.Sprintf("aotm: negative bandwidth %g", bandwidth))
	}
	return Immersion(alpha, AoTM(dataSize, bandwidth*efficiency))
}
