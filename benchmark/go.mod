// The benchmark is a module of its own so that it builds from its own
// build file; the module path keeps the chime/ prefix so it may import
// the parent's internal packages, which it reaches through the replace.
module chime/benchmark

go 1.22

require chime v0.0.0

replace chime => ../
