//go:build !amd64.v3

package mat

// fmaInBaseline reports that this build assumes FMA (GOAMD64=v3 or
// higher), so the runtime refuses to switch it off with GODEBUG.
const fmaInBaseline = false
