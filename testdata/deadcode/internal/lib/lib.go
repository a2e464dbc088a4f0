package lib

func Used() {}

func Orphan() {}
