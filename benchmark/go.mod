module negmine/benchmark

go 1.22

require negmine v0.0.0

replace negmine => ../
