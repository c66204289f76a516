module mgs

go 1.24
