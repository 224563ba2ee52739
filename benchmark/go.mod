module ortoa/benchmark

go 1.22

require ortoa v0.0.0

replace ortoa => ../
