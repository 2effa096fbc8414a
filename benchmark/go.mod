module github.com/explore-by-example/aide/benchmark

go 1.22

require github.com/explore-by-example/aide v0.0.0

replace github.com/explore-by-example/aide => ../
