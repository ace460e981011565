package prng

// ForEachBody lets the external tests (which import ckks, which imports
// prng) run on both kernel bodies.
var ForEachBody = forEachBody
