// Package nilguardtest checks the //lint:sink registration marker: a type
// outside internal/trace opts into the nil-guard contract via its doc
// comment, and unmarked types stay unconstrained.
package nilguardtest

// Buffered is a sink-like collector registered for nil-guard checking.
//
//lint:sink nil Buffered must be the disabled collector
type Buffered struct{ n int }

// Add forgets the guard.
func (b *Buffered) Add(v int) { // want `\(\*Buffered\)\.Add must begin with the .if b == nil. fast-path return`
	b.n += v
}

// Guarded complies.
func (b *Buffered) Guarded(v int) {
	if b == nil {
		return
	}
	b.n += v
}

// Plain never opted in: no constraint.
type Plain struct{ n int }

func (p *Plain) Add(v int) { p.n += v }
