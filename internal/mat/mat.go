// Package mat implements the small dense linear-algebra kernel used by the
// vtmig neural-network substrate: row-major matrices, vectors, products,
// and element-wise maps.
//
// The package favours explicitness over generality — shapes are validated
// eagerly and mismatches panic, because a shape error is always a
// programming bug, never a runtime condition to handle.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements in row-major order: element (i, j) lives at
	// Data[i*Cols+j]. len(Data) == Rows*Cols always holds.
	Data []float64
}

// New returns a zero-initialized rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice returns a rows×cols matrix that adopts data (no copy).
// len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice data length %d does not match shape %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d, %d) out of range for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Zero sets every element of m to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Randomize fills m with samples from N(0, stddev²) using rng.
func (m *Matrix) Randomize(rng *rand.Rand, stddev float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * stddev
	}
}

// XavierInit fills m with the Glorot/Xavier uniform initialization for a
// layer with fanIn inputs and fanOut outputs.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// String formats the matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("mat.Matrix{%dx%d}", m.Rows, m.Cols)
}
