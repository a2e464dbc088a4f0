module obiwan/benchmark

go 1.22

require obiwan v0.0.0

replace obiwan => ../
