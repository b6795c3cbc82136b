module tdb/benchmark

go 1.23

require tdb v0.0.0

replace tdb => ../
