// Package gen lives in a nested module: it imports a package the outer
// module cannot resolve, so loading it as part of the outer module fails.
package gen

import "nestedmod/tools/missing"

var _ = missing.Value
