module rhnorec/benchmark

go 1.22

require rhnorec v0.0.0

replace rhnorec => ../
