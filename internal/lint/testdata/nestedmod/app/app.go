// Package app is the outer module's only package.
package app

// Answer is a placeholder declaration.
const Answer = 42
