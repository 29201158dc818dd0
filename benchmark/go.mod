module fedsz/benchmark

go 1.22

require fedsz v0.0.0

replace fedsz => ../
