// Package fixture exercises hotpathalloc's stale-root check: a configured
// hot leaf must name a declaration, and methods match their declared
// receiver — Outer.Touch below is promoted from the embedded inner and
// roots nothing.
package fixture // want `configured hot leaf Outer.Touch matches no declaration` `configured hot leaf Leaf.Gone matches no declaration`

type inner struct{ buf []byte }

func (b *inner) Touch() {
	b.buf = append(b.buf, 0) // want `append \(may grow the backing array\) on the per-tick path \(reachable from inner.Touch \(configured hot leaf\)\)`
}

// Outer reaches Touch only through the embedded inner.
type Outer struct{ inner }
