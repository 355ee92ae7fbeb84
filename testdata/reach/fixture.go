// Package fixture is the fixture module's root package: an exported
// name here is reached only if a binary uses it.
package fixture

// Label is called by the binary.
func Label() string { return "fixture" }

// Unused is exported, and reached from nothing.
func Unused() int { return 1 }
