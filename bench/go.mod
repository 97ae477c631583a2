module qosneg/bench

go 1.22

require qosneg v0.0.0

replace qosneg => ../
