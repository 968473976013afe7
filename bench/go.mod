module github.com/javelen/jtp/bench

go 1.24

require github.com/javelen/jtp v0.0.0

replace github.com/javelen/jtp => ../
