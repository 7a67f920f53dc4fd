module suifx/benchmark

go 1.22

require suifx v0.0.0

replace suifx => ../
