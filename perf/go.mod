module carac/perf

go 1.24

require carac v0.0.0

replace carac => ../
